// Tests for the arrangement-search engine (search/tempering.hpp):
// thread-count-independent traces pinned to a committed golden, the
// geometric (floored) temperature ladder, replica-exchange bookkeeping, the
// global monotone-best invariant, the single-chain settings (hill climbing
// at a zero rung, annealing with a cooling rung), option validation, and
// warm-started sweeps (SweepEngine::add_arrangement /
// search::search_then_sweep) riding searched arrangements alongside the
// stock families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "explore/export.hpp"
#include "explore/sweep.hpp"
#include "search/tempering.hpp"
#include "search/warm_start.hpp"

namespace {

using hm::core::Arrangement;
using hm::core::ArrangementType;
using hm::core::make_arrangement;
using hm::search::TemperingEngine;
using hm::search::TemperingOptions;

#ifndef HM_GOLDEN_DIR
#define HM_GOLDEN_DIR "tests/golden"
#endif

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Interactive-speed measurement windows shared by every tempering test.
TemperingOptions fast_options() {
  TemperingOptions opt;
  opt.replicas = 3;
  opt.steps = 4;
  opt.candidates_per_step = 2;
  opt.exchange_interval = 2;
  opt.seed = 7;
  opt.params.throughput_warmup = 250;
  opt.params.throughput_measure = 250;
  opt.params.latency_warmup = 250;
  opt.params.latency_measure = 500;
  return opt;
}

/// One replica at a zero rung: hill climbing.
TemperingOptions hill_climb_options() {
  auto opt = fast_options();
  opt.replicas = 1;
  opt.initial_temperature = 0.0;
  opt.min_temperature = 0.0;
  opt.candidates_per_step = 3;
  return opt;
}

/// One replica whose rung cools every step: simulated annealing.
TemperingOptions anneal_options() {
  auto opt = fast_options();
  opt.replicas = 1;
  opt.initial_temperature = 0.02;
  opt.cooling = 0.92;
  opt.candidates_per_step = 3;
  return opt;
}

// tests/golden/tempering_small.csv pins this 3-replica trace byte for
// byte: the single-chain settings (zero rung, cooling) must leave every
// K >= 2 run with cooling == 1 untouched.
TEST(TemperingEngine, TraceMatchesGoldenAtAnyThreadCount) {
  const std::string golden =
      read_file(std::string(HM_GOLDEN_DIR) + "/tempering_small.csv");
  for (const unsigned threads : {1u, 4u, 8u}) {
    auto opt = fast_options();
    opt.threads = threads;
    TemperingEngine engine(opt);
    const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 9));
    EXPECT_EQ(res.trace.size(), opt.steps * opt.replicas);
    EXPECT_EQ(hm::search::trace_to_csv(res.trace), golden)
        << "threads=" << threads;
  }
}

TEST(TemperingEngine, LadderIsGeometricColdestFirstAndFloored) {
  auto opt = fast_options();
  opt.replicas = 4;
  opt.steps = 1;
  opt.initial_temperature = 0.08;
  opt.ladder_ratio = 0.5;
  TemperingEngine engine(opt);
  const auto res =
      engine.run(make_arrangement(ArrangementType::kHexaMesh, 13));

  ASSERT_EQ(res.temperatures.size(), 4u);
  const double hot = std::abs(res.baseline_score) * opt.initial_temperature;
  EXPECT_GT(hot, 0.0);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(res.temperatures[k], hot * std::pow(0.5, 3 - k),
                1e-6 * hot);
    if (k > 0) {
      EXPECT_GT(res.temperatures[k], res.temperatures[k - 1]);
    }
  }
  // Trace rows carry each replica's fixed rung.
  for (const auto& row : res.trace) {
    EXPECT_DOUBLE_EQ(row.temperature, res.temperatures[row.replica]);
  }

  // A (hypothetical) zero baseline cannot collapse the ladder: rungs are
  // floored. Simulated via a custom zero objective.
  auto zopt = fast_options();
  zopt.steps = 1;
  zopt.min_temperature = 0.5;
  zopt.objective.custom = [](const hm::core::EvaluationResult&) {
    return 0.0;
  };
  TemperingEngine zengine(zopt);
  const auto zres =
      zengine.run(make_arrangement(ArrangementType::kGrid, 9));
  EXPECT_EQ(zres.baseline_score, 0.0);
  for (const double t : zres.temperatures) EXPECT_DOUBLE_EQ(t, 0.5);
}

TEST(TemperingEngine, GlobalBestIsMonotoneAndReproducible) {
  auto opt = fast_options();
  opt.steps = 6;
  TemperingEngine engine(opt);
  const auto res =
      engine.run(make_arrangement(ArrangementType::kHexaMesh, 13));

  double best = res.baseline_score;
  for (const auto& row : res.trace) {
    EXPECT_GE(row.best_score, best);
    EXPECT_GE(row.best_score, row.current_score);
    best = row.best_score;
  }
  EXPECT_EQ(best, res.best_score);
  EXPECT_GE(res.best_score, res.baseline_score);
  EXPECT_TRUE(hm::search::is_legal_arrangement(res.best));
  EXPECT_EQ(res.best_result.saturation_throughput_bps, res.best_score);
  ASSERT_EQ(res.replica_scores.size(), opt.replicas);
  EXPECT_EQ(res.evaluations,
            1 + opt.steps * opt.replicas * opt.candidates_per_step);
}

TEST(TemperingEngine, ExchangeBookkeepingIsConsistent) {
  auto opt = fast_options();
  opt.steps = 8;
  opt.exchange_interval = 2;
  opt.replicas = 3;
  TemperingEngine engine(opt);
  const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 9));

  // 4 exchange sweeps; parity alternates, so sweeps attempt pair (0,1) or
  // (1,2) — one pair per sweep with K=3.
  EXPECT_EQ(res.exchange_attempts, 4u);
  EXPECT_LE(res.exchange_accepts, res.exchange_attempts);

  std::size_t exchanged_rows = 0;
  for (const auto& row : res.trace) {
    if (!row.exchanged) {
      EXPECT_EQ(row.exchange_partner, -1);
      continue;
    }
    ++exchanged_rows;
    // Partner symmetry within the same step.
    const auto partner = static_cast<std::size_t>(row.exchange_partner);
    const auto& mirror = res.trace[row.step * opt.replicas + partner];
    EXPECT_TRUE(mirror.exchanged);
    EXPECT_EQ(static_cast<std::size_t>(mirror.exchange_partner),
              row.replica);
    // Exchanges only happen on sweep steps.
    EXPECT_EQ((row.step + 1) % opt.exchange_interval, 0u);
  }
  EXPECT_EQ(exchanged_rows, 2 * res.exchange_accepts);
}

TEST(TemperingEngine, SingleReplicaNeverExchanges) {
  auto opt = fast_options();
  opt.replicas = 1;
  opt.steps = 4;
  TemperingEngine engine(opt);
  const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 8));
  EXPECT_EQ(res.exchange_attempts, 0u);
  EXPECT_EQ(res.trace.size(), 4u);
  EXPECT_GE(res.best_score, res.baseline_score);
}

// --- Single chain (K = 1) --------------------------------------------------------

TEST(SingleChain, HillClimbTraceIsThreadCountIndependent) {
  std::string reference;
  for (const unsigned threads : {1u, 4u, 8u}) {
    auto opt = hill_climb_options();
    opt.threads = threads;
    TemperingEngine engine(opt);
    const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 9));
    const std::string csv = hm::search::trace_to_csv(res.trace);
    if (reference.empty()) {
      reference = csv;
      EXPECT_EQ(res.trace.size(), opt.steps);
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

TEST(SingleChain, HillClimbAcceptsOnlyImprovements) {
  auto opt = hill_climb_options();
  opt.steps = 6;
  TemperingEngine engine(opt);
  const auto res =
      engine.run(make_arrangement(ArrangementType::kBrickwall, 12));
  double current = res.baseline_score;
  for (const auto& s : res.trace) {
    EXPECT_EQ(s.temperature, 0.0);
    if (s.accepted) {
      EXPECT_GT(s.current_score, current);
    } else {
      EXPECT_EQ(s.current_score, current);
    }
    // Under hill climbing the current state is always the best state.
    EXPECT_EQ(s.current_score, s.best_score);
    current = s.current_score;
  }
  EXPECT_GE(res.best_score, res.baseline_score);
  EXPECT_EQ(res.evaluations, 1 + opt.steps * opt.candidates_per_step);
}

TEST(SingleChain, AnnealMonotonicBestInvariant) {
  auto opt = anneal_options();
  opt.steps = 8;
  opt.candidates_per_step = 2;
  opt.initial_temperature = 0.05;
  TemperingEngine engine(opt);
  const auto res =
      engine.run(make_arrangement(ArrangementType::kHexaMesh, 13));

  // The annealing current state may walk downhill, but best-so-far is
  // monotone and never below the baseline.
  double best = res.baseline_score;
  for (const auto& s : res.trace) {
    EXPECT_GE(s.best_score, best);
    EXPECT_GE(s.best_score, s.current_score);
    best = s.best_score;
  }
  EXPECT_EQ(best, res.best_score);
  EXPECT_GE(res.best_score, res.baseline_score);
  EXPECT_TRUE(hm::search::is_legal_arrangement(res.best));
  // The reported best is reproducible: re-scoring it yields its score.
  EXPECT_EQ(res.best_result.saturation_throughput_bps, res.best_score);

  // The one rung cools geometrically from |baseline| * initial_temperature.
  const double hot = std::abs(res.baseline_score) * opt.initial_temperature;
  for (const auto& s : res.trace) {
    EXPECT_EQ(s.temperature,
              hot * std::pow(opt.cooling, static_cast<double>(s.step)));
  }
}

TEST(SingleChain, ZeroBaselineAnnealKeepsMetropolisAlive) {
  // Regression: the annealing temperature is scaled by |baseline_score|,
  // so a zero baseline would collapse it to ~0 and silently degenerate
  // annealing into hill climbing (strictly-worse candidates never
  // accepted). The absolute min_temperature floor keeps acceptance alive;
  // the trace records the effective (floored) temperature.
  auto opt = anneal_options();
  opt.steps = 10;
  opt.candidates_per_step = 1;  // no best-of-batch bias toward ties
  opt.seed = 3;
  opt.min_temperature = 0.75;
  // Score = link deficit vs. the stock arrangement: baseline is exactly 0,
  // removing a link scores -1 (strictly worse), re-adding scores back up.
  const auto start = make_arrangement(ArrangementType::kHexaMesh, 13);
  const double start_links =
      static_cast<double>(start.graph().edge_count());
  opt.objective.custom = [start_links](const hm::core::EvaluationResult& r) {
    return static_cast<double>(r.link_count) - start_links;
  };
  TemperingEngine engine(opt);
  const auto res = engine.run(start);

  EXPECT_EQ(res.baseline_score, 0.0);
  double min_current = 0.0;
  for (const auto& s : res.trace) {
    // The floor is the effective temperature (0 * cooling^step < floor).
    EXPECT_DOUBLE_EQ(s.temperature, opt.min_temperature);
    min_current = std::min(min_current, s.current_score);
  }
  // Metropolis accepted a strictly-worse candidate (exp(-1/0.75) ~ 0.26
  // per downhill proposal; deterministic for the fixed seed) — what a
  // collapsed temperature could never do at zero baseline.
  EXPECT_LT(min_current, 0.0);
  EXPECT_GE(res.best_score, res.baseline_score);
}

TEST(SingleChain, ProgressAndTraceExports) {
  auto opt = hill_climb_options();
  opt.steps = 3;
  std::size_t calls = 0;
  opt.on_progress = [&](const hm::search::TemperingProgress& p) {
    ++calls;
    EXPECT_EQ(p.step, calls);
    EXPECT_EQ(p.total, 3u);
    EXPECT_EQ(p.replicas, 1u);
    ASSERT_NE(p.first, nullptr);
    EXPECT_EQ(p.first->step + 1, p.step);
  };
  TemperingEngine engine(opt);
  const auto res = engine.run(make_arrangement(ArrangementType::kGrid, 8));
  EXPECT_EQ(calls, 3u);

  const std::string csv = hm::search::trace_to_csv(res.trace);
  EXPECT_EQ(csv.rfind("step,replica,temperature,mutation,candidates", 0), 0u);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3 rows
  const std::string json = hm::search::trace_to_json(res.trace);
  EXPECT_NE(json.find("\"best_score\""), std::string::npos);

  // export_trace_file picks the format from the suffix.
  const std::string dir = ::testing::TempDir();
  hm::search::export_trace_file(dir + "hm_trace.csv", res.trace);
  hm::search::export_trace_file(dir + "hm_trace.json", res.trace);
  EXPECT_EQ(read_file(dir + "hm_trace.csv"), csv);
  EXPECT_EQ(read_file(dir + "hm_trace.json"), json);
  EXPECT_THROW(hm::search::export_trace_file(dir + "no/such/dir.csv",
                                             res.trace),
               std::runtime_error);
}

TEST(TemperingEngine, RejectsDegenerateOptions) {
  const auto start = make_arrangement(ArrangementType::kGrid, 9);
  {
    auto opt = fast_options();
    opt.replicas = 0;
    EXPECT_THROW((void)TemperingEngine(opt).run(start),
                 std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.candidates_per_step = 0;
    EXPECT_THROW((void)TemperingEngine(opt).run(start),
                 std::invalid_argument);
  }
  for (const double cooling : {0.0, -0.5, 1.5, std::nan("")}) {
    auto opt = anneal_options();
    opt.cooling = cooling;
    EXPECT_THROW((void)TemperingEngine(opt).run(start),
                 std::invalid_argument)
        << "cooling=" << cooling;
  }
  {
    auto opt = hill_climb_options();
    opt.min_temperature = -1.0;
    EXPECT_THROW((void)TemperingEngine(opt).run(start),
                 std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.exchange_interval = 0;
    EXPECT_THROW((void)TemperingEngine(opt).run(start),
                 std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.ladder_ratio = 0.0;
    EXPECT_THROW((void)TemperingEngine(opt).run(start),
                 std::invalid_argument);
  }
  {
    // A zero rung is for one replica (hill climbing) only: the exchange
    // rule of a ladder divides by T.
    auto opt = fast_options();
    opt.min_temperature = 0.0;
    EXPECT_THROW((void)TemperingEngine(opt).run(start),
                 std::invalid_argument);
  }
  {
    auto opt = fast_options();
    opt.objective.area_weight = -1.0;
    EXPECT_THROW((void)TemperingEngine(opt).run(start),
                 std::invalid_argument);
  }
  EXPECT_THROW((void)TemperingEngine(fast_options())
                   .run(make_arrangement(ArrangementType::kGrid, 1)),
               std::invalid_argument);
}

// --- Warm-started sweeps --------------------------------------------------------

hm::explore::SweepSpec small_spec() {
  hm::explore::SweepSpec spec;
  spec.types = {ArrangementType::kGrid, ArrangementType::kHexaMesh};
  spec.chiplet_counts = {7};
  hm::core::EvaluationParams params;
  params.throughput_warmup = 250;
  params.throughput_measure = 250;
  params.latency_warmup = 250;
  params.latency_measure = 500;
  spec.param_grid = {params};
  return spec;
}

TEST(WarmStartedSweep, AddArrangementAppendsLabelledPoints) {
  hm::explore::SweepEngine engine;
  engine.add_arrangement(make_arrangement(ArrangementType::kHexaMesh, 7),
                         "my-searched-point");
  EXPECT_EQ(engine.arrangement_count(), 1u);
  const auto records = engine.run(small_spec());

  // 2 family points + 1 extra, indices continuous.
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].point.index, i);
    EXPECT_TRUE(records[i].error.empty()) << records[i].error;
  }
  const auto& extra = records.back();
  ASSERT_TRUE(extra.point.custom != nullptr);
  EXPECT_EQ(extra.point.label, "my-searched-point");
  EXPECT_EQ(extra.point.chiplet_count, 7u);
  // The custom point is a real evaluation, and — being the stock hexamesh
  // here — matches the family point evaluated under its own derived seed.
  EXPECT_GT(extra.result.saturation_throughput_bps, 0.0);

  // Exports carry the label instead of the family name.
  const std::string csv = hm::explore::to_csv(records);
  EXPECT_NE(csv.find("my-searched-point"), std::string::npos);
  const std::string json = hm::explore::to_json(records);
  EXPECT_NE(json.find("\"arrangement\": \"my-searched-point\""),
            std::string::npos);

  engine.clear_arrangements();
  EXPECT_EQ(engine.arrangement_count(), 0u);
  EXPECT_EQ(engine.run(small_spec()).size(), 2u);
}

TEST(WarmStartedSweep, SearchThenSweepIsThreadCountIndependent) {
  std::string reference;
  for (const unsigned threads : {1u, 4u}) {
    auto topt = fast_options();
    topt.steps = 2;
    topt.threads = threads;
    hm::explore::SweepEngine::Options sopt;
    sopt.threads = threads;
    hm::explore::SweepEngine engine(sopt);
    const auto out = hm::search::search_then_sweep(
        make_arrangement(ArrangementType::kHexaMesh, 7), topt, engine,
        small_spec());

    ASSERT_EQ(out.records.size(), 3u);
    EXPECT_TRUE(out.records.back().point.custom != nullptr);
    EXPECT_EQ(out.records.back().point.label,
              "searched:" + make_arrangement(ArrangementType::kHexaMesh, 7)
                                .name());
    EXPECT_GE(out.tempering.best_score, out.tempering.baseline_score);

    const std::string csv = hm::explore::to_csv(out.records);
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference) << "threads=" << threads;
    }
  }
}

}  // namespace
