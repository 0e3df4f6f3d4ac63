// Reproduces Fig. 7c/7d: zero-load latency and saturation throughput of
// brickwall and HexaMesh normalized to the grid baseline (= 100%), plus the
// AVG series the paper reports (latency -19%, throughput +34% for HM).
// Every design runs in parallel through the sweep engine (HM_THREADS
// cores); the printed numbers do not depend on it.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/arrangement.hpp"
#include "explore/sweep.hpp"
#include "noc/stats.hpp"

int main() {
  hm::bench::header("Fig. 7c/7d — latency & throughput relative to grid",
                    "Fig. 7c (normalized zero-load latency), Fig. 7d "
                    "(normalized saturation throughput)");

  // Paper defaults, and every design keeps the params' seed (42) instead
  // of a per-job derived one, as the sequential evaluate() calls did.
  hm::explore::SweepSpec spec;
  spec.types = hm::bench::compared_types();
  for (std::size_t n : hm::bench::simulation_sweep()) {
    if (n >= 2) spec.chiplet_counts.push_back(n);
  }
  spec.derive_per_job_seeds = false;
  const auto records = hm::bench::run_sweep(spec);

  std::printf("%4s | %9s %9s | %9s %9s\n", "N", "BW lat%", "HM lat%",
              "BW thr%", "HM thr%");
  hm::bench::rule(52);

  std::vector<double> bw_lat, hm_lat, bw_thr, hm_thr;
  for (std::size_t n : spec.chiplet_counts) {
    double lat[3], thr[3];
    int i = 0;
    for (auto type : spec.types) {
      const auto& r = hm::bench::record_or_die(records, type, n).result;
      lat[i] = r.zero_load_latency_cycles;
      thr[i] = r.saturation_throughput_bps;
      ++i;
    }
    const double bl = 100.0 * lat[1] / lat[0];
    const double hl = 100.0 * lat[2] / lat[0];
    const double bt = 100.0 * thr[1] / thr[0];
    const double ht = 100.0 * thr[2] / thr[0];
    std::printf("%4zu | %8.1f%% %8.1f%% | %8.1f%% %8.1f%%\n", n, bl, hl, bt,
                ht);
    if (n >= 10) {  // the paper's claims are stated for N >= 10
      bw_lat.push_back(bl);
      hm_lat.push_back(hl);
      bw_thr.push_back(bt);
      hm_thr.push_back(ht);
    }
  }

  hm::bench::rule(52);
  std::printf("%4s | %8.1f%% %8.1f%% | %8.1f%% %8.1f%%   (N >= 10)\n", "AVG",
              hm::noc::mean(bw_lat), hm::noc::mean(hm_lat),
              hm::noc::mean(bw_thr), hm::noc::mean(hm_thr));
  std::printf(
      "\nPaper (Sec. VI-C): BW/HM latency ~80%% of grid for N >= 10;\n"
      "throughput on average 112%% (BW) and 134%% (HM) of the grid.\n");
  hm::bench::maybe_export(records);
  return 0;
}
