// Self-tests of the benchmark's own rules (benchlib.hpp). Run after a
// build: .bench_build/perfbench_selftest (exit 0 = every check passed).
#include <cstdio>
#include <string>
#include <vector>

#include "benchlib.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  using perfbench::tail_percentile;
  const auto a = tail_percentile(one_to(300), 95.0);
  check(a.value == 285.0 && a.pct == 95.0 && a.samples == 300,
        "p95 of 300 samples is rank 285 (15 beyond)");
  const auto b = tail_percentile(one_to(100), 95.0);
  check(b.value == 90.0 && b.pct == 90.0,
        "p95 of 100 samples lowers to p90 (10 beyond)");
  const auto c = tail_percentile(one_to(210), 95.0);
  check(c.value == 200.0 && 210 - 200 >= 10, "p95 of 210 keeps 10 beyond");
  const auto d = tail_percentile(one_to(7), 95.0);
  check(d.value == 4.0, "too few samples: the median is reported");
  check(tail_percentile({}, 95.0).samples == 0, "no samples: empty");
}

void schedule_rule() {
  using namespace perfbench;
  ScheduleSpec spec;
  spec.requests = 200;
  spec.ping_every_s = 0.1;
  const auto a = make_schedule(7, spec);
  const auto b = make_schedule(7, spec);
  const auto c = make_schedule(8, spec);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].at_s == b[i].at_s && a[i].kind == b[i].kind &&
           a[i].key == b[i].key && a[i].conn == b[i].conn;
  }
  check(same, "same seed, same schedule");
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].key != c[i].key;
  }
  check(differs, "another seed, another schedule");
  std::size_t hot = 0;
  std::size_t cold = 0;
  std::size_t search = 0;
  bool sorted = true;
  bool cold_in_order = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].at_s < a[i - 1].at_s) sorted = false;
    if (a[i].kind == OpKind::kHot) ++hot;
    if (a[i].kind == OpKind::kSearch) ++search;
    if (a[i].kind == OpKind::kCold) cold_in_order &= a[i].key == cold++;
    if (a[i].kind == OpKind::kPing) sorted &= a[i].conn == spec.connections;
  }
  check(sorted, "sorted by due time; pings on their own connection");
  check(hot == 160 && cold == 40 && search == 1,
        "exact hot share, one search request");
  bool spread = true;  // cold requests evenly spaced: every fifth
  for (std::size_t i = 0, n = 0; i < a.size(); ++i) {
    if (a[i].kind == OpKind::kHot || a[i].kind == OpKind::kCold) {
      spread &= (a[i].kind == OpKind::kCold) == (n % 5 == 4);
      ++n;
    }
  }
  check(spread, "cold requests evenly spread");
  check(cold_in_order, "cold keys numbered in send order");
}

void lateness_rule() {
  perfbench::OpTiming t;
  t.due_s = 1.0;
  t.sent_s = 1.25;
  t.replied_s = 1.5;
  check(t.latency_ms() == 500.0, "latency counts from the due time");
  check(t.late_ms() == 250.0, "lateness is sent minus due");
}

void digest_rule() {
  const std::string out = "type,n,latency\ngrid,4,23.5\nhexamesh,7,19.25\n";
  const std::string ref = perfbench::digest_hex(out);
  check(perfbench::digest_matches(out, ref), "digest accepts the output");
  bool all_rejected = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = out;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      all_rejected &= !perfbench::digest_matches(flipped, ref);
    }
  }
  check(all_rejected, "digest rejects every flipped output bit");
}

}  // namespace

int main() {
  percentile_rule();
  schedule_rule();
  lateness_rule();
  digest_rule();
  std::printf("%s\n", failures == 0 ? "all self-tests passed"
                                    : "SELF-TESTS FAILED");
  return failures == 0 ? 0 : 1;
}
