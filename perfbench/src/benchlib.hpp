// Pure helpers of the benchmark program: percentile rule, seeded open-loop
// schedule, request timing, output digests and metric collection. Nothing
// here touches the hm library, so perfbench_selftest can pin each rule
// without running a workload.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ percentiles

/// A percentile as the benchmark reports it: the value, the percentile the
/// value actually sits at, and the sample count it was taken over.
struct Percentile {
  double value = 0.0;
  double pct = 0.0;  ///< effective percentile in (0, 100]
  std::size_t samples = 0;
};

/// Nearest-rank percentile `p` (in (0, 100]) of `v`, lowered until at least
/// `min_beyond` samples lie strictly above the reported rank — "the highest
/// percentile with >= min_beyond samples beyond it". With too few samples
/// for any rank to qualify, the median is reported (pct says so).
inline Percentile tail_percentile(std::vector<double> v, double p,
                                  std::size_t min_beyond = 10) {
  Percentile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);  // 1-based nearest rank
  if (n - rank < min_beyond) {
    rank = n > min_beyond ? n - min_beyond : (n + 1) / 2;
  }
  out.value = v[rank - 1];
  out.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- seeding

/// SplitMix64 step: the benchmark's own input generator, independent of the
/// library's RNGs so generated inputs cannot drift with library changes.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --------------------------------------------------------- open-loop load

enum class OpKind : std::uint8_t { kHot, kCold, kSearch, kPing };

/// One scheduled request of the serve_mix open loop.
struct ScheduledOp {
  double at_s = 0.0;  ///< due time, seconds after the window opens
  OpKind kind = OpKind::kHot;
  std::uint32_t key = 0;  ///< hot: hot-key index; cold: cold-key index
  std::uint32_t conn = 0; ///< connection the request is sent on
};

struct ScheduleSpec {
  std::size_t requests = 300;   ///< evaluate requests (hot + cold)
  double rate_per_s = 12.0;     ///< fixed arrival rate
  double hot_share = 0.8;       ///< share of hot requests
  std::size_t hot_keys = 12;
  std::size_t connections = 3;  ///< evaluate connections (round robin)
  double search_at = 0.5;       ///< search request position, share of window
  double ping_every_s = 0.0;    ///< > 0 interleaves pings on their own conn
};

/// The seeded open-loop schedule: evaluate requests due at a fixed rate,
/// the cold ones evenly spread among them (so every seed offers the same
/// load and the same queueing pattern), hot keys drawn uniformly from the
/// seed, one search at `search_at` of the window and optional
/// pings on connection `connections` (a dedicated one, since the server
/// answers pings out of band). Cold requests are numbered in send order.
/// Identical for identical (seed, spec); sorted by due time.
inline std::vector<ScheduledOp> make_schedule(std::uint64_t seed,
                                              const ScheduleSpec& spec) {
  std::uint64_t st = seed ^ 0x5e7e5eedULL;
  const double cold_share = 1.0 - spec.hot_share;
  std::vector<ScheduledOp> ops;
  std::uint32_t cold = 0;
  for (std::size_t i = 0; i < spec.requests; ++i) {
    ScheduledOp op;
    op.at_s = (static_cast<double>(i) + 0.5) / spec.rate_per_s;
    op.conn = static_cast<std::uint32_t>(i % spec.connections);
    // Cold requests evenly spread: request i is cold when the running
    // cold quota crosses an integer.
    const bool is_cold =
        std::floor(static_cast<double>(i + 1) * cold_share + 1e-9) >
        std::floor(static_cast<double>(i) * cold_share + 1e-9);
    if (!is_cold) {
      op.kind = OpKind::kHot;
      op.key = static_cast<std::uint32_t>(splitmix64(st) % spec.hot_keys);
    } else {
      op.kind = OpKind::kCold;
      op.key = cold++;
    }
    ops.push_back(op);
  }
  const double window = static_cast<double>(spec.requests) / spec.rate_per_s;
  ScheduledOp search;
  search.kind = OpKind::kSearch;
  search.at_s = spec.search_at * window;
  search.conn = 0;
  ops.push_back(search);
  if (spec.ping_every_s > 0.0) {
    for (double p = spec.ping_every_s / 2; p < window; p += spec.ping_every_s) {
      ScheduledOp ping;
      ping.kind = OpKind::kPing;
      ping.at_s = p;
      ping.conn = static_cast<std::uint32_t>(spec.connections);
      ops.push_back(ping);
    }
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ScheduledOp& a, const ScheduledOp& b) {
                     return a.at_s < b.at_s;
                   });
  return ops;
}

/// Timing of one open-loop request. Latency counts from the *due* time, so
/// a generator or server stall is charged to every request it delayed;
/// lateness is how far behind schedule the generator sent it.
struct OpTiming {
  double due_s = 0.0;
  double sent_s = 0.0;
  double replied_s = 0.0;
  [[nodiscard]] double latency_ms() const { return 1e3 * (replied_s - due_s); }
  [[nodiscard]] double late_ms() const { return 1e3 * (sent_s - due_s); }
};

// ---------------------------------------------------------------- digests

/// 64-bit FNV-1a. Each byte step is a bijection of the running state, so
/// any single changed byte changes the digest.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string digest_hex(std::string_view bytes) {
  return hex64(fnv1a64(bytes));
}

/// True when `bytes` hash to `expected_hex` (case-sensitive lowercase hex).
inline bool digest_matches(std::string_view bytes,
                           std::string_view expected_hex) {
  return digest_hex(bytes) == expected_hex;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; the result line prints them in insertion order.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// JSON number with every significant digit (non-finite values become 0 —
/// JSON has no NaN; a metric that cannot be measured is a bug upstream).
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
