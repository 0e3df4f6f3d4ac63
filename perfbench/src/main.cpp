// perfbench: the repository benchmark program. Normally started by
// perfbench/run.py, which builds it, passes the host and reference
// arguments, and checks the metric set against BENCHMARK.json.
//
//   perfbench --workload fig7_sweep|search_n37|serve_mix --seed N
//             [--seconds S] [--trace 0|1] [--threads K] [--tmp DIR]
//             [--server PATH] [--expect HEX]
//
// Human-readable metric lines go to stderr; the last stdout line is the
// result object {"correct", "attempted", "failed", "metrics", "digest"}.
// Exit status 0 when every correctness check passed, 1 otherwise.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <algorithm>
#include <fstream>
#include <string>

#include "perfbench.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

void fail_check(Outcome& out, const std::string& what) {
  std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", what.c_str());
  out.correct = false;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

PoolSpans read_pool_spans(const std::string& trace_path) {
  // One event per line (telemetry/trace.cpp): {"name": "...", ..., "dur": X
  PoolSpans s;
  std::ifstream in(trace_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\": \"pool.job\"") == std::string::npos) continue;
    const auto at = line.find("\"dur\": ");
    if (at == std::string::npos) continue;
    const double dur_s = std::strtod(line.c_str() + at + 7, nullptr) * 1e-6;
    s.busy_s += dur_s;
    s.max_job_s = std::max(s.max_job_s, dur_s);
  }
  return s;
}

RouterCounts counter_snapshot() {
  const auto snap = hm::telemetry::snapshot();
  const auto get = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  RouterCounts c;
  c.flits_routed = get("sim.flits_routed");
  c.heads_revoked = get("sim.heads_revoked");
  c.sa_stalls = get("sim.sa_conflict_stalls") + get("sim.sa_credit_stalls");
  c.packets_admitted = get("sim.packets_admitted");
  c.packets_dropped = get("sim.packets_dropped");
  return c;
}

RouterCounts operator-(const RouterCounts& a, const RouterCounts& b) {
  RouterCounts d;
  d.flits_routed = a.flits_routed - b.flits_routed;
  d.heads_revoked = a.heads_revoked - b.heads_revoked;
  d.sa_stalls = a.sa_stalls - b.sa_stalls;
  d.packets_admitted = a.packets_admitted - b.packets_admitted;
  d.packets_dropped = a.packets_dropped - b.packets_dropped;
  return d;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_router_metrics(MetricSet& m, const RouterCounts& c) {
  const auto flits = static_cast<double>(c.flits_routed);
  m.add("noc.router.flits_routed", flits, "count");
  m.add("noc.router.revokes_per_flit",
        ratio(static_cast<double>(c.heads_revoked), flits), "ratio");
  m.add("noc.router.sa_stalls_per_flit",
        ratio(static_cast<double>(c.sa_stalls), flits), "ratio");
  m.add("noc.router.drop_frac",
        ratio(static_cast<double>(c.packets_dropped),
              static_cast<double>(c.packets_admitted + c.packets_dropped)),
        "ratio");
}

void add_layer_metrics(MetricSet& m, const LayerTimes& t) {
  m.add("core.arrangement.s", t.arrangement_s, "s");
  m.add("core.analytic.calls", static_cast<double>(t.analytic_calls), "count");
  m.add("core.analytic.s", t.analytic_s, "s");
  m.add("noc.topology.full_builds", static_cast<double>(t.full_builds),
        "count");
  m.add("noc.topology.incremental_builds",
        static_cast<double>(t.incremental_builds), "count");
  m.add("noc.topology.s", t.topology_s, "s");
  m.add("noc.latency.runs", static_cast<double>(t.latency_runs), "count");
  m.add("noc.latency.s", t.latency_s, "s");
  m.add("noc.latency.ns_per_cycle",
        ratio(1e9 * t.latency_s, static_cast<double>(t.latency_cycles)), "ns");
  m.add("noc.sat.searches", static_cast<double>(t.sat_searches), "count");
  m.add("noc.sat.probes", static_cast<double>(t.sat_probes), "count");
  m.add("noc.sat.probes_per_search",
        ratio(static_cast<double>(t.sat_probes),
              static_cast<double>(t.sat_searches)),
        "count");
  m.add("noc.sat.cycles", static_cast<double>(t.sat_cycles), "count");
  m.add("noc.sat.s", t.sat_s, "s");
  m.add("noc.sat.ns_per_cycle",
        ratio(1e9 * t.sat_s, static_cast<double>(t.sat_cycles)), "ns");
  m.add("noc.arena.reuse_frac", t.arena_reuse_frac, "ratio");
  m.add("bench.replay_s", t.wall_s, "s");
  m.add("bench.residual_frac", 1.0 - ratio(t.layer_sum_s(), t.wall_s),
        "ratio");
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "[--seconds S] [--trace 0|1] [--threads K] [--tmp DIR] "
               "[--server PATH] [--expect HEX]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing flag value");
      return argv[++i];
    };
    const char* a = argv[i];
    if (std::strcmp(a, "--workload") == 0) {
      opt.workload = value();
    } else if (std::strcmp(a, "--seed") == 0) {
      opt.seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(a, "--seconds") == 0) {
      opt.seconds = std::strtod(value(), nullptr);
    } else if (std::strcmp(a, "--trace") == 0) {
      opt.trace = std::strcmp(value(), "0") != 0;
    } else if (std::strcmp(a, "--threads") == 0) {
      opt.threads = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (std::strcmp(a, "--tmp") == 0) {
      opt.tmp_dir = value();
    } else if (std::strcmp(a, "--server") == 0) {
      opt.server_bin = value();
    } else if (std::strcmp(a, "--expect") == 0) {
      opt.expect = value();
    } else {
      usage("unknown argument");
    }
  }
  if (opt.threads == 0 || opt.seconds <= 0.0 || opt.tmp_dir.empty()) {
    usage("--threads, --seconds and --tmp must be positive / non-empty");
  }
  // Telemetry stays off for every measured run; the traced runs switch it
  // on around their traced sections only.
  hm::telemetry::set_enabled(false);

  perfbench::Outcome out;
  try {
    if (opt.workload == "fig7_sweep") {
      out = perfbench::run_fig7_sweep(opt);
    } else if (opt.workload == "search_n37") {
      out = perfbench::run_search_n37(opt);
    } else if (opt.workload == "serve_mix") {
      out = perfbench::run_serve_mix(opt);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string metrics;
  for (const auto& m : out.metrics.all()) {
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               perfbench::json_number(m.value) + ", \"unit\": \"" + m.unit +
               "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}, \"digest\": \"%s\"}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str(),
      out.digest.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
