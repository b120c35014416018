// Golden equivalence between the legacy row-major training kernel and the
// columnar fast path (TreeKernel::kColumnar): same splits, same
// tie-breaking, same node arrays, same importances — bit-identical, not
// just statistically close. Serialised dumps are compared because
// save() prints doubles at max_digits10, which round-trips every distinct
// double to a distinct string. Also covers the batched-inference
// contract: predict_batch must equal N single predict() calls exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ml/incremental_forest.hpp"
#include "ml/random_forest.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {
namespace {

std::string dump(const DecisionTreeRegressor& tree) {
  std::ostringstream out;
  tree.save(out);
  return out.str();
}

std::string dump(const RandomForestRegressor& forest) {
  std::ostringstream out;
  forest.save(out);
  return out.str();
}

// Tie-heavy dataset: quantised features (many equal values per column), a
// constant column, and duplicated rows — the cases where split
// tie-breaking and accumulation order can silently diverge.
Dataset tie_heavy_data(std::size_t n, std::size_t dims, stats::Rng& rng) {
  Dataset d(dims);
  std::vector<double> x(dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < dims; ++f) {
      x[f] = f == 0 ? 1.0  // constant feature
                    : static_cast<double>(rng.uniform_index(5));
    }
    const double y = x[1] * 2.0 - x[2] + 0.25 * rng.normal();
    d.add(x, y);
    if (i % 7 == 0) d.add(x, y);  // exact duplicate rows
  }
  return d;
}

Dataset smooth_data(std::size_t n, std::size_t dims, stats::Rng& rng) {
  Dataset d(dims);
  std::vector<double> x(dims);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    d.add(x, x[0] * x[0] - 3.0 * x[1] + rng.normal());
  }
  return d;
}

TreeConfig tree_config(SplitMode mode, TreeKernel kernel) {
  TreeConfig cfg;
  cfg.split_mode = mode;
  cfg.kernel = kernel;
  cfg.max_features = 3;
  return cfg;
}

class SplitModeEquivalence : public ::testing::TestWithParam<SplitMode> {};

TEST_P(SplitModeEquivalence, ForestTreesBitIdenticalOnTies) {
  stats::Rng data_rng(11);
  const auto data = tie_heavy_data(300, 6, data_rng);
  ForestConfig legacy_cfg;
  legacy_cfg.n_trees = 12;
  legacy_cfg.tree = tree_config(GetParam(), TreeKernel::kLegacy);
  ForestConfig fast_cfg = legacy_cfg;
  fast_cfg.tree.kernel = TreeKernel::kColumnar;

  RandomForestRegressor legacy(legacy_cfg), fast(fast_cfg);
  stats::Rng rng_a(42), rng_b(42);
  legacy.fit(data, rng_a);
  fast.fit(data, rng_b);
  EXPECT_EQ(dump(legacy), dump(fast));

  // Importances feed Figure 8; they must match to the bit as well.
  const auto imp_a = legacy.importance();
  const auto imp_b = fast.importance();
  ASSERT_EQ(imp_a.size(), imp_b.size());
  for (std::size_t i = 0; i < imp_a.size(); ++i) {
    EXPECT_EQ(imp_a[i], imp_b[i]) << "importance[" << i << "]";
  }
}

TEST_P(SplitModeEquivalence, TreeBitIdenticalOnBootstrapMultiset) {
  stats::Rng data_rng(12);
  const auto data = smooth_data(250, 5, data_rng);
  // Bootstrap multiset: repeated indices, unsorted order.
  stats::Rng boot(5);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 400; ++i) {
    rows.push_back(boot.uniform_index(data.size()));
  }
  DecisionTreeRegressor legacy(tree_config(GetParam(), TreeKernel::kLegacy));
  DecisionTreeRegressor fast(tree_config(GetParam(), TreeKernel::kColumnar));
  stats::Rng rng_a(7), rng_b(7);
  legacy.fit(data, rows, rng_a);
  fast.fit(data, rows, rng_b);
  EXPECT_EQ(dump(legacy), dump(fast));
  // The RNG streams must also stay in lockstep (same draw sequence).
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

INSTANTIATE_TEST_SUITE_P(BothModes, SplitModeEquivalence,
                         ::testing::Values(SplitMode::kBest,
                                           SplitMode::kRandom));

TEST(ForestEquivalence, WideFeatureBestSplitFallbackBitIdentical) {
  // Feature count above the presort cap exercises the columnar
  // gather+sort fallback of the kBest path.
  stats::Rng data_rng(13);
  const auto data = smooth_data(80, 600, data_rng);
  TreeConfig legacy_cfg = tree_config(SplitMode::kBest, TreeKernel::kLegacy);
  legacy_cfg.max_features = 0;  // sqrt(600)
  TreeConfig fast_cfg = legacy_cfg;
  fast_cfg.kernel = TreeKernel::kColumnar;
  DecisionTreeRegressor legacy(legacy_cfg), fast(fast_cfg);
  stats::Rng rng_a(21), rng_b(21);
  legacy.fit(data, rng_a);
  fast.fit(data, rng_b);
  EXPECT_EQ(dump(legacy), dump(fast));
}

TEST(ForestEquivalence, IncrementalRefreshesStayBitIdentical) {
  // Several partial_fit rounds: the columnar path appends to the shared
  // ColumnStore across refreshes; the models must never diverge.
  IncrementalForestConfig legacy_cfg;
  legacy_cfg.forest.n_trees = 10;
  legacy_cfg.forest.tree = tree_config(SplitMode::kRandom, TreeKernel::kLegacy);
  IncrementalForestConfig fast_cfg = legacy_cfg;
  fast_cfg.forest.tree.kernel = TreeKernel::kColumnar;
  IncrementalForest legacy(legacy_cfg, 3), fast(fast_cfg, 3);

  stats::Rng data_rng(14);
  for (int round = 0; round < 5; ++round) {
    const auto batch = tie_heavy_data(60, 6, data_rng);
    legacy.partial_fit(batch);
    // Replays the same draws because tie_heavy_data consumed data_rng;
    // rebuild an identical batch from the stored buffer instead.
    const auto view = legacy.buffer();
    Dataset same(batch.feature_count());
    for (std::size_t i = view.size() - batch.size(); i < view.size(); ++i) {
      same.add(view.x(i), view.y(i));
    }
    fast.partial_fit(same);
    EXPECT_EQ(dump(legacy.forest()), dump(fast.forest())) << "round " << round;
  }
}

// --- Constant columns ------------------------------------------------------
// The columnar kernel skips features whose column is constant over the
// training set (ColumnStore::constant); the legacy kernel scans them and
// finds no split. Dumps and RNG streams must still agree on data built
// from the cases the skip has to get right.

// Columns: 0 all zero, 1 constant 3.5, 2 a mix of +0.0 and -0.0, 3
// quantised with one NaN (never constant), 4 constant 2.0 until a batch
// built with `late_varies`, 5-8 informative, the rest all zero padding
// (as in the overlap code's empty workload slots).
Dataset constant_heavy_data(std::size_t n, std::size_t dims, bool late_varies,
                            bool with_nan, stats::Rng& rng) {
  Dataset d(dims);
  std::vector<double> x(dims, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(x.begin(), x.end(), 0.0);
    x[1] = 3.5;
    x[2] = rng.uniform_index(2) == 0 ? 0.0 : -0.0;
    x[3] = with_nan && i == 7 ? std::numeric_limits<double>::quiet_NaN()
                              : static_cast<double>(rng.uniform_index(4));
    x[4] = late_varies ? static_cast<double>(rng.uniform_index(3)) : 2.0;
    for (std::size_t f = 5; f < 9; ++f) {
      x[f] = static_cast<double>(rng.uniform_index(5));
    }
    d.add(x, 2.0 * x[5] - x[6] + 0.5 * x[4] + 0.25 * rng.normal());
  }
  return d;
}

struct ConstantCase {
  SplitMode mode;
  std::size_t dims;  // > 512 sends kBest to the gathered path
  const char* name;
};

class ConstantColumnEquivalence
    : public ::testing::TestWithParam<ConstantCase> {
 protected:
  TreeConfig config(TreeKernel kernel) const {
    TreeConfig cfg = tree_config(GetParam().mode, kernel);
    cfg.max_features = GetParam().dims > 64 ? 0 : 4;  // sqrt(d) when wide
    return cfg;
  }
  // Presorted kBest gets no NaN. With a NaN among the x, neither the
  // legacy (x, y) pair order nor the presort's order is a strict weak
  // order, and the two kernels' trees differ with or without the
  // constant-column skip (a known defect: NaN features are not yet
  // rejected or ordered consistently). The NaN column is never flagged
  // constant, so the skip cannot touch it in any mode.
  bool with_nan() const {
    return GetParam().mode == SplitMode::kRandom || GetParam().dims > 512;
  }
};

TEST_P(ConstantColumnEquivalence, TreeBitIdenticalWithRngInLockstep) {
  stats::Rng data_rng(31);
  const auto data =
      constant_heavy_data(220, GetParam().dims, false, with_nan(), data_rng);
  ASSERT_TRUE(data.columns().constant(0));
  ASSERT_TRUE(data.columns().constant(1));
  ASSERT_TRUE(data.columns().constant(2));
  ASSERT_FALSE(data.columns().constant(3));
  ASSERT_TRUE(data.columns().constant(4));
  DecisionTreeRegressor legacy(config(TreeKernel::kLegacy));
  DecisionTreeRegressor fast(config(TreeKernel::kColumnar));
  stats::Rng rng_a(8), rng_b(8);
  legacy.fit(data, rng_a);
  fast.fit(data, rng_b);
  EXPECT_EQ(dump(legacy), dump(fast));
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST_P(ConstantColumnEquivalence, IncrementalRoundsStayBitIdentical) {
  // Column 4 is constant over the first rounds' buffer and starts to
  // vary in round 2, after the store has synced it as constant.
  IncrementalForestConfig legacy_cfg;
  legacy_cfg.forest.n_trees = 8;
  legacy_cfg.forest.tree = config(TreeKernel::kLegacy);
  IncrementalForestConfig fast_cfg = legacy_cfg;
  fast_cfg.forest.tree.kernel = TreeKernel::kColumnar;
  IncrementalForest legacy(legacy_cfg, 5), fast(fast_cfg, 5);
  stats::Rng data_rng(32);
  for (int round = 0; round < 5; ++round) {
    const auto batch = constant_heavy_data(
        round == 0 ? 120 : 40, GetParam().dims, round >= 2,
        with_nan() && round == 0, data_rng);
    legacy.partial_fit(batch);
    fast.partial_fit(batch);
    EXPECT_EQ(fast.buffer().columns().constant(4), round < 2)
        << "round " << round;
    EXPECT_EQ(dump(legacy.forest()), dump(fast.forest())) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ConstantColumnEquivalence,
    ::testing::Values(ConstantCase{SplitMode::kRandom, 12, "Random"},
                      ConstantCase{SplitMode::kRandom, 600, "RandomWide"},
                      ConstantCase{SplitMode::kBest, 12, "BestPresorted"},
                      ConstantCase{SplitMode::kBest, 600, "BestGathered"}),
    [](const ::testing::TestParamInfo<ConstantCase>& info) {
      return std::string(info.param.name);
    });

TEST(ForestEquivalence, PredictBatchMatchesSinglePredictions) {
  stats::Rng data_rng(15);
  const auto data = smooth_data(400, 8, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 25;
  RandomForestRegressor forest(cfg);
  stats::Rng rng(9);
  forest.fit(data, rng);

  Matrix queries(0, data.feature_count());
  std::vector<double> q(data.feature_count());
  for (int i = 0; i < 64; ++i) {
    for (auto& v : q) v = data_rng.uniform(-2.5, 2.5);
    queries.push_row(q);
  }
  const auto batch = forest.predict_batch(queries);
  ASSERT_EQ(batch.size(), queries.rows());
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    EXPECT_EQ(batch[i], forest.predict(queries.row(i))) << "row " << i;
  }
}

TEST(ForestEquivalence, IncrementalPredictBatchMatchesSingles) {
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 15;
  IncrementalForest model(cfg, 4);
  stats::Rng data_rng(16);
  model.partial_fit(smooth_data(200, 5, data_rng));

  Matrix queries(0, 5);
  std::vector<double> q(5);
  for (int i = 0; i < 32; ++i) {
    for (auto& v : q) v = data_rng.uniform(-2.0, 2.0);
    queries.push_row(q);
  }
  const auto batch = model.predict_batch(queries);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    EXPECT_EQ(batch[i], model.predict(queries.row(i))) << "row " << i;
  }
}

TEST(ForestEquivalence, PredictBatchOnUnfittedForestIsZero) {
  RandomForestRegressor forest;
  Matrix queries(0, 3);
  queries.push_row(std::vector<double>{1.0, 2.0, 3.0});
  const auto out = forest.predict_batch(queries);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0.0);
}

// --- Inference-kernel equivalence -----------------------------------------
// Both blocked kernels (tree-lane leaves and row-lane gather) must agree
// with the reference per-tree walk to the bit: they do no arithmetic the
// reference doesn't (compares and one mean reduction in the same tree
// order), so EXPECT_EQ, not NEAR.

// Per-row tree-lane walk, reduced exactly like predict().
double predict_via_leaves(const RandomForestRegressor& forest,
                          std::span<const double> x) {
  std::vector<double> leaves(forest.blocked().tree_count());
  forest_kernel::leaves(forest.blocked(), x, leaves);
  return forest_kernel::reduce_mean(leaves);
}

TEST(ForestKernelEquivalence, ScalarBlockedMatchesReferenceOnTies) {
  stats::Rng data_rng(18);
  const auto data = tie_heavy_data(300, 6, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 21;  // not a multiple of the lane width: exercises the tail
  RandomForestRegressor forest(cfg);
  stats::Rng rng(44);
  forest.fit(data, rng);

  std::vector<double> q(6);
  for (int i = 0; i < 200; ++i) {
    for (std::size_t f = 0; f < q.size(); ++f) {
      // Tie-heavy queries: values sitting exactly on quantised thresholds.
      q[f] = static_cast<double>(data_rng.uniform_index(5));
    }
    const double ref = forest.predict_reference(q);
    EXPECT_EQ(forest.predict(q), ref) << "predict, row " << i;
    EXPECT_EQ(predict_via_leaves(forest, q), ref) << "leaves, row " << i;
  }
}

TEST(ForestKernelEquivalence, GatherVariantsMatchReferenceBatch) {
  stats::Rng data_rng(19);
  const auto data = smooth_data(350, 7, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 40;
  RandomForestRegressor forest(cfg);
  stats::Rng rng(45);
  forest.fit(data, rng);

  // 67 rows: several full 8-row blocks plus a ragged tail.
  Matrix queries(0, 7);
  std::vector<double> q(7);
  for (int i = 0; i < 67; ++i) {
    for (auto& v : q) v = data_rng.uniform(-2.5, 2.5);
    queries.push_row(q);
  }
  const auto ref = forest.predict_batch_reference(queries);
  std::vector<double> out(queries.rows());
  forest_kernel::gather(forest.blocked(), queries, out);
  EXPECT_EQ(out, ref);
  EXPECT_EQ(forest.predict_batch(queries), ref);
}

// The blocked layout is rebuilt after every fit, refresh and load; each
// rebuild must leave both kernels on the reference walk. 7 rows take the
// per-row tree-lane path, 67 rows the row-lane gather with a ragged tail.
void expect_kernels_match_reference(const RandomForestRegressor& forest,
                                    const Matrix& narrow, const Matrix& wide) {
  for (std::size_t r = 0; r < wide.rows(); ++r) {
    EXPECT_EQ(forest.predict(wide.row(r)),
              forest.predict_reference(wide.row(r)))
        << "row " << r;
  }
  EXPECT_EQ(forest.predict_batch(narrow),
            forest.predict_batch_reference(narrow));
  EXPECT_EQ(forest.predict_batch(wide), forest.predict_batch_reference(wide));
}

TEST(ForestKernelEquivalence, MatchesReferenceAfterRefreshAndReload) {
  stats::Rng data_rng(22);
  Dataset data = tie_heavy_data(250, 6, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 13;  // not a multiple of the lane width
  cfg.tree.split_mode = SplitMode::kRandom;  // the deployed IRFR mode
  RandomForestRegressor forest(cfg);
  stats::Rng rng(47);
  forest.fit(data, rng);

  // Half the queries sit on the quantised thresholds, half between them.
  Matrix narrow(0, 6), wide(0, 6);
  std::vector<double> q(6);
  for (int i = 0; i < 67; ++i) {
    for (auto& v : q) {
      v = i % 2 == 0 ? static_cast<double>(data_rng.uniform_index(5))
                     : data_rng.uniform(-0.5, 4.5);
    }
    wide.push_row(q);
    if (i < 7) narrow.push_row(q);
  }
  {
    SCOPED_TRACE("after fit");
    expect_kernels_match_reference(forest, narrow, wide);
  }
  for (int round = 1; round <= 3; ++round) {
    data.append(tie_heavy_data(60, 6, data_rng));
    forest.refresh_trees(data, 5, rng);
    SCOPED_TRACE("after refresh round " + std::to_string(round));
    expect_kernels_match_reference(forest, narrow, wide);
  }
  std::stringstream saved;
  forest.save(saved);
  RandomForestRegressor loaded;
  loaded.load(saved);
  {
    SCOPED_TRACE("after save/load");
    expect_kernels_match_reference(loaded, narrow, wide);
    EXPECT_EQ(loaded.predict_batch(wide), forest.predict_batch(wide));
  }
}

TEST(ForestKernelEquivalence, BlockedLayoutInvariants) {
  stats::Rng data_rng(20);
  const auto data = tie_heavy_data(150, 5, data_rng);
  ForestConfig cfg;
  cfg.n_trees = 9;
  RandomForestRegressor forest(cfg);
  stats::Rng rng(46);
  forest.fit(data, rng);

  const BlockedForest& b = forest.blocked();
  ASSERT_EQ(b.tree_count(), 9u);
  ASSERT_EQ(b.depth.size(), 9u);
  ASSERT_EQ(b.value.size(), b.node_count());
  for (std::size_t g = 0; g < b.node_count(); ++g) {
    const auto& node = b.nodes[g];
    if (node.feature == BlockedForest::kLeaf) {
      // Leaves self-loop so parked lanes step harmlessly.
      EXPECT_EQ(node.left, static_cast<std::int32_t>(g));
    } else {
      // BFS lays siblings adjacently: right child is left + 1, and both
      // children live strictly after their parent.
      EXPECT_GT(node.left, static_cast<std::int32_t>(g));
      EXPECT_LT(node.left + 1, static_cast<std::int32_t>(b.node_count()));
    }
  }
}

TEST(ForestKernelEquivalence, EmptyAndUnfittedForests) {
  RandomForestRegressor forest;
  EXPECT_TRUE(forest.blocked().empty());
  Matrix queries(0, 4);
  std::vector<double> none;
  forest_kernel::gather(forest.blocked(), queries, none);
  EXPECT_TRUE(none.empty());
  queries.push_row(std::vector<double>{0.0, 1.0, 2.0, 3.0});
  EXPECT_EQ(forest.predict_batch(queries), std::vector<double>{0.0});
}

TEST(ForestEquivalence, ParallelColumnarTrainingMatchesSerial) {
  // The shared ColumnStore is primed once and read concurrently; a
  // 4-thread fit must equal the single-thread fit bit for bit.
  stats::Rng data_rng(17);
  const auto data = tie_heavy_data(200, 6, data_rng);
  ForestConfig serial_cfg;
  serial_cfg.n_trees = 16;
  serial_cfg.threads = 1;
  ForestConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = 4;
  RandomForestRegressor serial(serial_cfg), parallel(parallel_cfg);
  stats::Rng rng_a(33), rng_b(33);
  serial.fit(data, rng_a);
  parallel.fit(data, rng_b);
  EXPECT_EQ(dump(serial), dump(parallel));
}

}  // namespace
}  // namespace gsight::ml
