// Recomputes the four headline numbers of the abstract:
//   theory:   HM reduces network diameter by 42% and improves bisection
//             bandwidth by 130% vs a grid (asymptotically);
//   practice: HM reduces zero-load latency by ~19% and improves saturation
//             throughput by ~34% on average (cycle-accurate simulation).
// The simulated half runs every design in parallel through the sweep
// engine (HM_THREADS cores); the printed numbers do not depend on it.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/arrangement.hpp"
#include "core/proxies.hpp"
#include "explore/sweep.hpp"
#include "noc/stats.hpp"

int main() {
  using namespace hm::core;
  hm::bench::header("Headline claims", "abstract + Sec. VI-C averages");

  std::printf("Theory (asymptotic, Sec. IV-D):\n");
  std::printf("  diameter reduction:        %5.1f%%   (paper: 42%%)\n",
              100.0 * (1.0 - asymptotic_diameter_ratio_hm()));
  std::printf("  bisection BW improvement:  %5.1f%%   (paper: 130%%)\n",
              100.0 * (asymptotic_bisection_ratio_hm() - 1.0));

  // Paper defaults, and every design keeps the params' seed (42) instead
  // of a per-job derived one, as the sequential evaluate() calls did.
  hm::explore::SweepSpec spec;
  spec.types = {ArrangementType::kGrid, ArrangementType::kHexaMesh};
  for (std::size_t n : hm::bench::simulation_sweep()) {
    if (n >= 10) spec.chiplet_counts.push_back(n);
  }
  spec.derive_per_job_seeds = false;
  const auto records = hm::bench::run_sweep(spec);

  std::vector<double> lat_ratio, thr_ratio;
  std::printf("\nPractice (simulation, N >= 10 sweep):\n");
  for (std::size_t n : spec.chiplet_counts) {
    const auto& grid =
        hm::bench::record_or_die(records, ArrangementType::kGrid, n).result;
    const auto& hexa =
        hm::bench::record_or_die(records, ArrangementType::kHexaMesh, n)
            .result;
    lat_ratio.push_back(hexa.zero_load_latency_cycles /
                        grid.zero_load_latency_cycles);
    thr_ratio.push_back(hexa.saturation_throughput_bps /
                        grid.saturation_throughput_bps);
    std::printf("  N=%3zu: latency %.1f%% of grid, throughput %.1f%% of grid\n",
                n, 100.0 * lat_ratio.back(), 100.0 * thr_ratio.back());
  }

  std::printf("\nAverages over the sweep:\n");
  std::printf("  latency reduction:         %5.1f%%   (paper: 19%%)\n",
              100.0 * (1.0 - hm::noc::mean(lat_ratio)));
  std::printf("  throughput improvement:    %5.1f%%   (paper: 34%%)\n",
              100.0 * (hm::noc::mean(thr_ratio) - 1.0));
  hm::bench::maybe_export(records);
  return 0;
}
