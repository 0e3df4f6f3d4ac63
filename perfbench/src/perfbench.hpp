// Benchmark program internals shared by the workload files.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "benchlib.hpp"
#include "core/evaluator.hpp"
#include "explore/sweep.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;      ///< nproc of the host
  std::string tmp_dir;       ///< scratch directory inside the checkout
  std::string server_bin;    ///< path of the built hm_server
  std::string expect;        ///< reference output digest ("" = none)
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  std::string digest;  ///< output digest the correctness check compared
};

/// Fails the run loudly: message on stderr, correct = false.
void fail_check(Outcome& out, const std::string& what);

/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

/// Median of `reps` runs of `step` (seconds each); the setup_s rule.
template <typename Step>
double median_setup_s(int reps, Step&& step) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    step(i);
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Sum and max of the "pool.job" span durations in a Chrome trace file.
struct PoolSpans {
  double busy_s = 0.0;
  double max_job_s = 0.0;
};
PoolSpans read_pool_spans(const std::string& trace_path);

/// Telemetry counter deltas of one traced engine run.
struct RouterCounts {
  std::uint64_t flits_routed = 0;
  std::uint64_t heads_revoked = 0;
  std::uint64_t sa_stalls = 0;
  std::uint64_t packets_admitted = 0;
  std::uint64_t packets_dropped = 0;
};
RouterCounts counter_snapshot();
RouterCounts operator-(const RouterCounts& a, const RouterCounts& b);
void add_router_metrics(MetricSet& m, const RouterCounts& c);

// ---------------------------------------------------------------- replays

/// Per-layer self times and counts of a replay from outside the engine.
struct LayerTimes {
  double wall_s = 0.0;
  double arrangement_s = 0.0;
  double analytic_s = 0.0;
  std::uint64_t analytic_calls = 0;
  double topology_s = 0.0;
  std::uint64_t full_builds = 0;
  std::uint64_t incremental_builds = 0;
  double latency_s = 0.0;
  std::uint64_t latency_runs = 0;
  std::uint64_t latency_cycles = 0;
  double sat_s = 0.0;
  std::uint64_t sat_searches = 0;
  std::uint64_t sat_probes = 0;
  std::uint64_t sat_cycles = 0;
  double arena_reuse_frac = 0.0;
  std::uint64_t mismatches = 0;  ///< replayed results != engine results
  [[nodiscard]] double layer_sum_s() const {
    return arrangement_s + analytic_s + topology_s + latency_s + sat_s;
  }
};

/// Replays every sweep point single-threaded through the public calls
/// evaluate_simulation makes and compares each result with the engine's
/// record byte for byte.
LayerTimes replay_sweep(const std::vector<hm::explore::SweepRecord>& records);

/// Search-shaped replay: a fixed-seed chain of `candidates` mutations from
/// `start`, each timed through rebuild_from, evaluate_analytic and
/// find_saturation. The `checks` pairs (arrangement, engine result) are
/// re-evaluated first and compared byte for byte.
struct SearchCheck {
  const hm::core::Arrangement* arrangement;
  const hm::core::EvaluationResult* engine_result;
};
LayerTimes replay_search(const hm::core::Arrangement& start,
                         const hm::core::EvaluationParams& params,
                         std::size_t candidates, std::uint64_t chain_seed,
                         const std::vector<SearchCheck>& checks);

/// Adds the core/noc layer metrics of a replay, and the residual check.
void add_layer_metrics(MetricSet& m, const LayerTimes& t);

// -------------------------------------------------------------- workloads

Outcome run_fig7_sweep(const Options& opt);
Outcome run_search_n37(const Options& opt);
Outcome run_serve_mix(const Options& opt);

/// Largest share of a replay's wall the per-layer self times may leave
/// unaccounted for before the traced run fails.
inline constexpr double kMaxResidualFrac = 0.05;

}  // namespace perfbench
