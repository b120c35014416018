// Cloning frontier: the PR-10 experiment must reproduce the qualitative
// result — gateway cloning lowers p99 on quiet servers and backfires
// (p99 worse than factor = 1) once every server carries heavy antagonists
// — for both service disciplines, and the sweep must be bit-identical at
// any thread count. The full default sweep is a sub-second run, so the
// suite executes it verbatim rather than a toy stand-in.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/run_report.hpp"
#include "sched/cloning_frontier.hpp"

namespace gsight::sched {
namespace {

TEST(CloningFrontier, CloningHelpsQuietServersAndBackfiresUnderInterference) {
  CloningFrontierConfig cfg;  // the shipped defaults: d in {1,2,3}, bg {0,3}
  cfg.campaign.threads = 2;
  const CloningFrontierResult result = run_cloning_frontier(cfg);
  ASSERT_EQ(result.cells.size(), cfg.clone_factors.size() *
                                     cfg.interference_levels.size() *
                                     cfg.disciplines.size());
  for (const sim::ServiceDiscipline d : cfg.disciplines) {
    const FrontierCell* quiet_solo = result.find(1, 0, d);
    const FrontierCell* quiet_cloned = result.find(3, 0, d);
    const FrontierCell* loud_solo = result.find(1, 3, d);
    const FrontierCell* loud_cloned = result.find(3, 3, d);
    ASSERT_NE(quiet_solo, nullptr);
    ASSERT_NE(quiet_cloned, nullptr);
    ASSERT_NE(loud_solo, nullptr);
    ASSERT_NE(loud_cloned, nullptr);
    // Quiet servers: min-of-3 trims the jitter tail.
    EXPECT_LT(quiet_cloned->p99.mean, quiet_solo->p99.mean)
        << discipline_label(d);
    EXPECT_LT(quiet_cloned->p50.mean, quiet_solo->p50.mean)
        << discipline_label(d);
    // Three antagonists per server: the clones' own load pushes the
    // contended servers past saturation and the p99 inverts.
    EXPECT_GT(loud_cloned->p99.mean, loud_solo->p99.mean)
        << discipline_label(d);
    // Accounting: every cloned cell retracted (d-1) legs per completion.
    EXPECT_GT(loud_cloned->clones_cancelled.mean, 0.0);
    EXPECT_DOUBLE_EQ(loud_solo->clones_cancelled.mean, 0.0);
  }
}

TEST(CloningFrontier, ThreadCountNeverChangesTheSweep) {
  CloningFrontierConfig cfg;
  cfg.clone_factors = {1, 3};
  cfg.interference_levels = {0, 3};
  cfg.replications = 2;
  auto run_json = [&](std::size_t threads) {
    CloningFrontierConfig c = cfg;
    c.campaign.threads = threads;
    obs::RunReport report("cloning_frontier_test");
    run_cloning_frontier(c).write_into(report);
    return report.to_json().dump_string();
  };
  const std::string serial = run_json(1);
  const std::string pooled = run_json(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, pooled);
}

TEST(CloningFrontier, ReportRowsCoverEveryCell) {
  CloningFrontierConfig cfg;
  cfg.clone_factors = {1, 2};
  cfg.interference_levels = {0};
  cfg.disciplines = {sim::ServiceDiscipline::kProcessorSharing};
  cfg.replications = 2;
  cfg.duration_s = 5.0;
  cfg.campaign.threads = 1;
  const CloningFrontierResult result = run_cloning_frontier(cfg);
  obs::RunReport report("cloning_frontier_test");
  result.write_into(report);
  // 2 cells x 7 metrics x (mean + ci95) result rows.
  EXPECT_EQ(report.result_count(), 2u * 7u * 2u);
  const obs::Json doc = report.to_json();
  const obs::Json* results = doc.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].prefix, "clone1.bg0.ps.");
  EXPECT_EQ(result.cells[1].prefix, "clone2.bg0.ps.");
}

// --- Config validation -------------------------------------------------------

/// run_cloning_frontier must reject `mutate`d defaults with an
/// invalid_argument naming `field`, before running any cell.
void expect_rejected(const std::function<void(CloningFrontierConfig&)>& mutate,
                     const std::string& field) {
  CloningFrontierConfig cfg;
  mutate(cfg);
  try {
    run_cloning_frontier(cfg);
    ADD_FAILURE() << field << ": bad config was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CloningFrontierValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(CloningFrontierConfig{}.validate());
}

TEST(CloningFrontierValidate, NeedsAtLeastOneReplication) {
  expect_rejected([](auto& c) { c.replications = 0; }, "replications");
}

TEST(CloningFrontierValidate, NeedsAtLeastOneServer) {
  expect_rejected([](auto& c) { c.servers = 0; }, "servers");
}

TEST(CloningFrontierValidate, QpsMustBeFiniteAndPositive) {
  expect_rejected([](auto& c) { c.qps = -3.0; }, "qps");
  expect_rejected([](auto& c) { c.qps = 0.0; }, "qps");
  expect_rejected([](auto& c) { c.qps = kNaN; }, "qps");
  expect_rejected([](auto& c) { c.qps = kInf; }, "qps");
}

TEST(CloningFrontierValidate, DurationMustBeFiniteAndPositive) {
  expect_rejected([](auto& c) { c.duration_s = -1.0; }, "duration_s");
  expect_rejected([](auto& c) { c.duration_s = 0.0; }, "duration_s");
  expect_rejected([](auto& c) { c.duration_s = kInf; }, "duration_s");
}

TEST(CloningFrontierValidate, DrainMustBeFiniteAndNonNegative) {
  expect_rejected([](auto& c) { c.drain_s = -0.5; }, "drain_s");
  expect_rejected([](auto& c) { c.drain_s = kNaN; }, "drain_s");
}

TEST(CloningFrontierValidate, JitterMustBeFiniteAndNonNegative) {
  expect_rejected([](auto& c) { c.jitter_sigma = -0.1; }, "jitter_sigma");
  expect_rejected([](auto& c) { c.jitter_sigma = kInf; }, "jitter_sigma");
}

TEST(CloningFrontierValidate, NeedsAtLeastOneCloneFactor) {
  expect_rejected([](auto& c) { c.clone_factors.clear(); }, "clone_factors");
}

TEST(CloningFrontierValidate, NeedsAtLeastOneInterferenceLevel) {
  expect_rejected([](auto& c) { c.interference_levels.clear(); },
                  "interference_levels");
}

TEST(CloningFrontierValidate, NeedsAtLeastOneDiscipline) {
  expect_rejected([](auto& c) { c.disciplines.clear(); }, "disciplines");
}

}  // namespace
}  // namespace gsight::sched
