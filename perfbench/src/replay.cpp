// Traced replays: the work an engine did, re-run single-threaded from
// outside through the public calls of each layer, with the benchmark's own
// spans around every call. The spans' self times must add up to the
// replay's wall clock (check_residual), and every replayed result is
// compared byte for byte with the engine's.
#include <cstdio>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/arrangement.hpp"
#include "core/evaluator.hpp"
#include "noc/arena.hpp"
#include "noc/rng.hpp"
#include "noc/routing.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "perfbench.hpp"
#include "search/mutation.hpp"
#include "store/record.hpp"

namespace perfbench {

namespace {

/// Adds the wall time of `fn()` to `acc` and returns fn's result.
template <typename Fn>
auto span(double& acc, Fn&& fn) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += seconds_since(t0);
  } else {
    auto r = fn();
    acc += seconds_since(t0);
    return r;
  }
}

bool same_bytes(const hm::core::EvaluationResult& a,
                const hm::core::EvaluationResult& b) {
  std::vector<std::uint8_t> x;
  std::vector<std::uint8_t> y;
  hm::store::encode_result(a, x);
  hm::store::encode_result(b, y);
  return x == y;
}

/// Build counters and arena statistics around a replay.
struct BuildCounters {
  std::uint64_t full = hm::noc::TopologyContext::lifetime_builds();
  std::uint64_t incremental = hm::noc::RoutingTables::incremental_builds();
  hm::noc::SimulationArena::Stats arena =
      hm::noc::SimulationArena::local().stats();

  void finish(LayerTimes& t) const {
    const auto& a = hm::noc::SimulationArena::local().stats();
    const std::uint64_t incr =
        hm::noc::RoutingTables::incremental_builds() - incremental;
    // lifetime_builds counts every constructed context, delta-built ones
    // included.
    t.incremental_builds = incr;
    t.full_builds = hm::noc::TopologyContext::lifetime_builds() - full - incr;
    const double reused =
        static_cast<double>(a.networks_reused - arena.networks_reused);
    const double leases =
        reused + static_cast<double>(a.networks_built - arena.networks_built +
                                     a.oneoff_networks - arena.oneoff_networks);
    t.arena_reuse_frac = leases > 0.0 ? reused / leases : 0.0;
  }
};

/// The cycle-accurate half of core::evaluate_simulation, call by call:
/// latency run on an arena network, then the surrogate-seeded saturation
/// search. `r` holds the analytic half and receives the simulated fields.
void simulate(const hm::core::EvaluationParams& params,
              const hm::noc::TrafficSpec& traffic,
              const std::shared_ptr<const hm::noc::TopologyContext>& topo,
              hm::core::EvaluationResult& r, LayerTimes& t) {
  if (params.measure_latency) {
    span(t.latency_s, [&] {
      hm::noc::Simulator sim(hm::noc::SimulationArena::local(), topo,
                             params.sim);
      sim.set_traffic(traffic);
      const auto lat = sim.run_latency(
          params.zero_load_injection_rate, params.latency_warmup,
          params.latency_measure, params.latency_drain_limit);
      r.zero_load_latency_cycles = lat.avg_packet_latency;
      r.latency_run_drained = lat.drained;
      t.latency_cycles += static_cast<std::uint64_t>(sim.now());
    });
    ++t.latency_runs;
  }
  if (params.measure_saturation) {
    const auto sat = span(t.sat_s, [&] {
      hm::noc::SaturationSearchOptions s;
      s.warmup = params.throughput_warmup;
      s.measure = params.throughput_measure;
      s.surrogate_rate = hm::core::analytic_saturation_estimate(r, params);
      return hm::noc::find_saturation(topo, params.sim, s, traffic, nullptr);
    });
    r.saturation_fraction = sat.accepted_flit_rate;
    r.saturation_throughput_bps =
        r.saturation_fraction * r.full_global_bandwidth_bps;
    ++t.sat_searches;
    t.sat_probes += static_cast<std::uint64_t>(sat.probes);
    t.sat_cycles += static_cast<std::uint64_t>(sat.probes) *
                    static_cast<std::uint64_t>(params.throughput_warmup +
                                               params.throughput_measure);
  }
}

hm::core::EvaluationResult analytic(const hm::core::Arrangement& arr,
                                    const hm::core::EvaluationParams& params,
                                    LayerTimes& t) {
  ++t.analytic_calls;
  return span(t.analytic_s,
              [&] { return hm::core::evaluate_analytic(arr, params); });
}

}  // namespace

LayerTimes replay_sweep(const std::vector<hm::explore::SweepRecord>& records) {
  LayerTimes t;
  const BuildCounters counters;
  const auto t0 = Clock::now();
  for (const auto& rec : records) {
    const auto& p = rec.point;
    const LayerTimes before = t;
    const auto arr = span(t.arrangement_s, [&] {
      return hm::core::make_arrangement(p.type, p.chiplet_count);
    });
    hm::core::EvaluationResult r = analytic(arr, p.params, t);
    const auto topo = span(t.topology_s, [&] {
      return hm::noc::TopologyContext::acquire(arr.graph());
    });
    simulate(p.params, p.traffic, topo, r, t);
    if (!same_bytes(r, rec.result)) ++t.mismatches;
    std::fprintf(stderr,
                 "  replay %-8s N=%-3zu analytic %.4f s  topology %.4f s  "
                 "latency %.3f s  saturation %.3f s (%llu probes)\n",
                 hm::core::to_string(p.type).c_str(), p.chiplet_count,
                 t.analytic_s - before.analytic_s,
                 t.topology_s - before.topology_s,
                 t.latency_s - before.latency_s, t.sat_s - before.sat_s,
                 static_cast<unsigned long long>(t.sat_probes -
                                                 before.sat_probes));
  }
  t.wall_s = seconds_since(t0);
  counters.finish(t);
  return t;
}

LayerTimes replay_search(const hm::core::Arrangement& start,
                         const hm::core::EvaluationParams& params,
                         std::size_t candidates, std::uint64_t chain_seed,
                         const std::vector<SearchCheck>& checks) {
  const hm::noc::TrafficSpec traffic;
  LayerTimes t;
  // Engine states first: untimed, they only pin replay == engine.
  for (const SearchCheck& c : checks) {
    LayerTimes scratch;
    hm::core::EvaluationResult r = analytic(*c.arrangement, params, scratch);
    simulate(params, traffic,
             hm::noc::TopologyContext::acquire(c.arrangement->graph()), r,
             scratch);
    if (!same_bytes(r, *c.engine_result)) ++t.mismatches;
  }

  const BuildCounters counters;
  hm::noc::Rng rng(hm::noc::derive_seed(chain_seed, 0x5eac4));
  auto cur = std::make_unique<hm::core::Arrangement>(start);
  auto ctx = hm::noc::TopologyContext::acquire(start.graph());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < candidates; ++i) {
    std::optional<hm::search::Candidate> cand;
    span(t.arrangement_s, [&] {
      while (!cand) cand = hm::search::propose_mutation(*cur, rng);
    });
    auto next = span(t.topology_s, [&] {
      return hm::noc::TopologyContext::rebuild_from(ctx, cand->edit);
    });
    hm::core::EvaluationResult r = analytic(cand->arrangement, params, t);
    simulate(params, traffic, next, r, t);
    cur = std::make_unique<hm::core::Arrangement>(
        std::move(cand->arrangement));
    ctx = std::move(next);
  }
  t.wall_s = seconds_since(t0);
  counters.finish(t);
  const auto n = static_cast<double>(candidates);
  std::fprintf(stderr,
               "  replay per candidate: analytic %.4f s  topology %.4f s  "
               "saturation %.3f s (%.2f probes)\n",
               t.analytic_s / n, t.topology_s / n, t.sat_s / n,
               static_cast<double>(t.sat_probes) / n);
  return t;
}

}  // namespace perfbench
