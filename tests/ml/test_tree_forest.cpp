#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {
namespace {

// y = step function on feature 0 — a single split should nail it.
Dataset step_data(std::size_t n, stats::Rng& rng) {
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    d.add(std::vector<double>{x0, rng.uniform(), rng.uniform()},
          x0 > 0.2 ? 5.0 : -5.0);
  }
  return d;
}

// Smooth nonlinear target with two informative + two noise features.
Dataset smooth_data(std::size_t n, stats::Rng& rng, double noise = 0.0) {
  Dataset d(4);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    const double y = std::sin(a) + 0.5 * b * b + noise * rng.normal();
    d.add(std::vector<double>{a, b, rng.uniform(), rng.uniform()}, y);
  }
  return d;
}

TEST(DecisionTree, LearnsStepFunctionExactly) {
  stats::Rng rng(1);
  const auto d = step_data(500, rng);
  TreeConfig cfg;
  cfg.max_features = 3;  // all features
  DecisionTreeRegressor tree(cfg);
  tree.fit(d, rng);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.9, 0.5, 0.5}), 5.0, 1e-9);
  EXPECT_NEAR(tree.predict(std::vector<double>{-0.9, 0.5, 0.5}), -5.0, 1e-9);
}

TEST(DecisionTree, ConstantTargetGivesSingleLeaf) {
  Dataset d(2);
  stats::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    d.add(std::vector<double>{rng.uniform(), rng.uniform()}, 3.0);
  }
  DecisionTreeRegressor tree;
  tree.fit(d, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.1, 0.9}), 3.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  stats::Rng rng(3);
  const auto d = smooth_data(800, rng);
  TreeConfig cfg;
  cfg.max_depth = 3;
  cfg.max_features = 4;
  DecisionTreeRegressor tree(cfg);
  tree.fit(d, rng);
  EXPECT_LE(tree.depth(), 4u);  // root at depth 1
}

TEST(DecisionTree, MinSamplesLeafHonored) {
  stats::Rng rng(4);
  const auto d = smooth_data(100, rng);
  TreeConfig cfg;
  cfg.min_samples_leaf = 20;
  cfg.max_features = 4;
  DecisionTreeRegressor tree(cfg);
  tree.fit(d, rng);
  // With >= 20 samples per leaf and 100 samples there can be at most 5
  // leaves => at most 9 nodes.
  EXPECT_LE(tree.node_count(), 9u);
}

TEST(DecisionTree, ImportanceOnInformativeFeature) {
  stats::Rng rng(5);
  const auto d = step_data(1000, rng);
  TreeConfig cfg;
  cfg.max_features = 3;
  DecisionTreeRegressor tree(cfg);
  tree.fit(d, rng);
  const auto& imp = tree.importance();
  EXPECT_GT(imp[0], imp[1] * 10);
  EXPECT_GT(imp[0], imp[2] * 10);
}

TEST(DecisionTree, FitOnBootstrapIndices) {
  stats::Rng rng(6);
  const auto d = step_data(200, rng);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < 300; ++i) rows.push_back(rng.uniform_index(200));
  DecisionTreeRegressor tree;
  tree.fit(d, rows, rng);
  EXPECT_TRUE(tree.fitted());
}

class SplitModeTest : public ::testing::TestWithParam<SplitMode> {};

TEST_P(SplitModeTest, SmoothRegressionGeneralizes) {
  stats::Rng rng(7);
  const auto train = smooth_data(2000, rng);
  const auto test = smooth_data(400, rng);
  ForestConfig cfg;
  cfg.n_trees = 40;
  cfg.tree.split_mode = GetParam();
  cfg.tree.max_features = 2;
  RandomForestRegressor forest(cfg);
  forest.fit(train, rng);
  std::vector<double> truth, pred;
  for (std::size_t i = 0; i < test.size(); ++i) {
    truth.push_back(test.y(i));
    pred.push_back(forest.predict(test.x(i)));
  }
  EXPECT_LT(rmse(truth, pred), 0.35);
  EXPECT_GT(r2(truth, pred), 0.9);
}

INSTANTIATE_TEST_SUITE_P(BothModes, SplitModeTest,
                         ::testing::Values(SplitMode::kBest,
                                           SplitMode::kRandom));

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  stats::Rng rng(8);
  const auto train = smooth_data(1500, rng, /*noise=*/0.5);
  const auto test = smooth_data(300, rng, /*noise=*/0.0);

  TreeConfig tcfg;
  tcfg.max_features = 4;
  DecisionTreeRegressor tree(tcfg);
  tree.fit(train, rng);

  ForestConfig fcfg;
  fcfg.n_trees = 50;
  RandomForestRegressor forest(fcfg);
  forest.fit(train, rng);

  std::vector<double> truth, tree_pred, forest_pred;
  for (std::size_t i = 0; i < test.size(); ++i) {
    truth.push_back(test.y(i));
    tree_pred.push_back(tree.predict(test.x(i)));
    forest_pred.push_back(forest.predict(test.x(i)));
  }
  EXPECT_LT(rmse(truth, forest_pred), rmse(truth, tree_pred));
}

TEST(RandomForest, ImportanceNormalizedAndInformative) {
  stats::Rng rng(9);
  const auto d = smooth_data(1500, rng);
  ForestConfig cfg;
  cfg.n_trees = 30;
  RandomForestRegressor forest(cfg);
  forest.fit(d, rng);
  const auto imp = forest.importance();
  ASSERT_EQ(imp.size(), 4u);
  double sum = 0.0;
  for (double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.8);  // informative features dominate
}

TEST(RandomForest, UnfittedPredictsZero) {
  RandomForestRegressor forest;
  EXPECT_DOUBLE_EQ(forest.predict(std::vector<double>{1.0}), 0.0);
}

// A row narrower than the forest's training width would let a split read
// past its end; every inference entry point must refuse it instead.
TEST(RandomForest, RejectsRowsNarrowerThanFeatureCount) {
  stats::Rng rng(31);
  ForestConfig cfg;
  cfg.n_trees = 10;
  RandomForestRegressor forest(cfg);
  forest.fit(smooth_data(200, rng), rng);
  ASSERT_EQ(forest.feature_count(), 4u);

  const std::vector<double> narrow_row{0.5, -0.5, 0.1};
  EXPECT_THROW(forest.predict(narrow_row), std::invalid_argument);
  EXPECT_THROW(forest.predict_reference(narrow_row), std::invalid_argument);
  for (const std::size_t rows : {7u, 67u}) {  // tree-lane and gather paths
    Matrix xs(0, 3);
    for (std::size_t r = 0; r < rows; ++r) xs.push_row(narrow_row);
    EXPECT_THROW(forest.predict_batch(xs), std::invalid_argument) << rows;
  }
  // Full-width (and wider) rows still predict.
  EXPECT_NO_THROW(forest.predict(std::vector<double>{0.5, -0.5, 0.1, 0.2}));
  EXPECT_NO_THROW(
      forest.predict(std::vector<double>{0.5, -0.5, 0.1, 0.2, 9.0}));
}

TEST(RandomForest, RefreshRejectsDataOfAnotherWidth) {
  stats::Rng rng(32);
  ForestConfig cfg;
  cfg.n_trees = 6;
  RandomForestRegressor forest(cfg);
  forest.fit(smooth_data(150, rng), rng);
  EXPECT_THROW(forest.refresh_trees(step_data(150, rng), 2, rng),
               std::invalid_argument);
  EXPECT_EQ(forest.feature_count(), 4u);
  EXPECT_NO_THROW(forest.refresh_trees(smooth_data(150, rng), 2, rng));
}

TEST(RandomForest, RefreshTreesTracksDrift) {
  stats::Rng rng(10);
  // Train on y = +x, then refresh trees with y = -x data; predictions
  // must cross toward the new regime as more trees refresh.
  Dataset pos(1), neg(1);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    pos.add(std::vector<double>{x}, x);
    neg.add(std::vector<double>{x}, -x);
  }
  ForestConfig cfg;
  cfg.n_trees = 30;
  cfg.tree.max_features = 1;
  RandomForestRegressor forest(cfg);
  forest.fit(pos, rng);
  const double before = forest.predict(std::vector<double>{0.8});
  EXPECT_GT(before, 0.5);
  for (int round = 0; round < 12; ++round) {
    forest.refresh_trees(neg, 10, rng);
  }
  const double after = forest.predict(std::vector<double>{0.8});
  EXPECT_LT(after, -0.5);
}

TEST(RandomForest, RefreshOnUnfittedActsAsFit) {
  stats::Rng rng(11);
  const auto d = step_data(300, rng);
  RandomForestRegressor forest;
  forest.refresh_trees(d, 5, rng);
  EXPECT_TRUE(forest.fitted());
}

}  // namespace
}  // namespace gsight::ml
