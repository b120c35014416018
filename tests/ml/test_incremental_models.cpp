#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "ml/incremental_forest.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/svr.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {
namespace {

enum class Kind { kForest, kKnn, kLinear, kSvr, kMlp };

std::unique_ptr<IncrementalRegressor> make(Kind kind) {
  switch (kind) {
    case Kind::kForest: {
      IncrementalForestConfig cfg;
      cfg.forest.n_trees = 30;
      return std::make_unique<IncrementalForest>(cfg, 1);
    }
    case Kind::kKnn:
      return std::make_unique<IncrementalKnn>(KnnConfig{}, 1);
    case Kind::kLinear:
      return std::make_unique<IncrementalLinear>(LinearConfig{}, 1);
    case Kind::kSvr:
      return std::make_unique<IncrementalSvr>(SvrConfig{}, 1);
    case Kind::kMlp: {
      MlpConfig cfg;
      cfg.hidden = {32};
      return std::make_unique<IncrementalMlp>(cfg, 1);
    }
  }
  return nullptr;
}

// Linear target: every model family must learn this.
Dataset linear_data(std::size_t n, stats::Rng& rng) {
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    const double c = rng.uniform(-1.0, 1.0);
    d.add(std::vector<double>{a, b, c}, 3.0 * a - 2.0 * b + 0.5 * c + 1.0);
  }
  return d;
}

class ModelSweep : public ::testing::TestWithParam<Kind> {};

TEST_P(ModelSweep, PredictsZeroBeforeTraining) {
  auto model = make(GetParam());
  EXPECT_DOUBLE_EQ(model->predict(std::vector<double>{0.1, 0.2, 0.3}), 0.0);
  EXPECT_EQ(model->samples_seen(), 0u);
}

TEST_P(ModelSweep, LearnsLinearTarget) {
  stats::Rng rng(21);
  auto model = make(GetParam());
  model->partial_fit(linear_data(1500, rng));
  const auto test = linear_data(300, rng);
  const auto pred = model->predict_all(test);
  std::vector<double> truth(test.targets());
  EXPECT_GT(r2(truth, pred), 0.85) << model->name();
}

TEST_P(ModelSweep, IncrementalUpdatesImproveAccuracy) {
  stats::Rng rng(22);
  auto model = make(GetParam());
  const auto test = linear_data(200, rng);
  model->partial_fit(linear_data(60, rng));
  const double err_small =
      rmse(test.targets(), model->predict_all(test));
  for (int batch = 0; batch < 6; ++batch) {
    model->partial_fit(linear_data(250, rng));
  }
  const double err_big = rmse(test.targets(), model->predict_all(test));
  // Strictly better for most models; ISVR's epsilon-insensitive tube stops
  // improving once residuals fall inside it, so allow a small tolerance.
  EXPECT_LT(err_big, err_small + 0.02) << model->name();
  EXPECT_EQ(model->samples_seen(), 60u + 6u * 250u);
}

TEST_P(ModelSweep, EmptyBatchIsNoop) {
  auto model = make(GetParam());
  model->partial_fit(Dataset(3));
  EXPECT_EQ(model->samples_seen(), 0u);
}

// Matrix::push_row checks width only by assert, so before
// Dataset::append checked it a release build trained on the misread rows.
TEST_P(ModelSweep, WrongWidthBatchThrowsAndLeavesModelUntouched) {
  stats::Rng rng(17);
  auto model = make(GetParam());
  model->partial_fit(linear_data(64, rng));
  const std::vector<double> probe{0.1, 0.2, 0.3};
  const double before = model->predict(probe);
  const auto* forest = dynamic_cast<const IncrementalForest*>(model.get());
  const std::uint64_t version = forest != nullptr ? forest->version() : 0;

  Dataset narrow(2);
  for (int i = 0; i < 8; ++i) narrow.add(std::vector<double>{0.5, -0.5}, 9.0);
  EXPECT_THROW(model->partial_fit(narrow), std::invalid_argument);
  EXPECT_EQ(model->samples_seen(), 64u);
  EXPECT_EQ(model->predict(probe), before);
  if (forest != nullptr) {
    EXPECT_EQ(forest->version(), version);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelSweep,
                         ::testing::Values(Kind::kForest, Kind::kKnn,
                                           Kind::kLinear, Kind::kSvr,
                                           Kind::kMlp));

TEST(IncrementalForest, ImportanceExposed) {
  stats::Rng rng(23);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 20;
  IncrementalForest forest(cfg, 2);
  forest.partial_fit(linear_data(500, rng));
  const auto imp = forest.importance();
  ASSERT_EQ(imp.size(), 3u);
  // Feature 0 (weight 3) should dominate feature 2 (weight 0.5).
  EXPECT_GT(imp[0], imp[2]);
}

TEST(IncrementalForest, AdaptsToConceptDrift) {
  stats::Rng rng(24);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 30;
  cfg.refresh_fraction = 0.5;
  IncrementalForest forest(cfg, 3);
  // Regime 1: y = +10 x0.
  Dataset r1(1), r2(1);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    r1.add(std::vector<double>{x}, 10.0 * x);
    r2.add(std::vector<double>{x}, -10.0 * x);
  }
  forest.partial_fit(r1);
  EXPECT_GT(forest.predict(std::vector<double>{0.5}), 3.0);
  // Regime 2 arrives in several batches; buffer mixes but drift should
  // pull predictions down (mix of both regimes averages toward 0).
  for (int i = 0; i < 4; ++i) forest.partial_fit(r2);
  EXPECT_LT(forest.predict(std::vector<double>{0.5}), 3.0);
}

TEST(IncrementalKnn, ExactNeighborRecall) {
  IncrementalKnn knn(KnnConfig{.k = 1, .weighted = false}, 1);
  Dataset d(2);
  d.add(std::vector<double>{0.0, 0.0}, 1.0);
  d.add(std::vector<double>{10.0, 10.0}, 2.0);
  knn.partial_fit(d);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{0.2, -0.1}), 1.0);
  EXPECT_DOUBLE_EQ(knn.predict(std::vector<double>{9.0, 11.0}), 2.0);
}

TEST(IncrementalLinear, RecoversCoefficients) {
  stats::Rng rng(25);
  LinearConfig cfg;
  cfg.epochs_per_batch = 40;
  IncrementalLinear lin(cfg, 1);
  lin.partial_fit(linear_data(2000, rng));
  // Scaled-space weights can't be compared directly, but predictions can.
  EXPECT_NEAR(lin.predict(std::vector<double>{0.5, 0.0, 0.0}), 2.5, 0.15);
  EXPECT_NEAR(lin.predict(std::vector<double>{0.0, 0.5, 0.0}), 0.0, 0.15);
}

TEST(IncrementalSvr, RobustToOutliers) {
  stats::Rng rng(26);
  Dataset d(1);
  for (int i = 0; i < 800; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    double y = 2.0 * x;
    if (i % 100 == 0) y += 50.0;  // gross outliers
    d.add(std::vector<double>{x}, y);
  }
  SvrConfig cfg;
  cfg.epochs_per_batch = 30;
  IncrementalSvr svr(cfg, 1);
  svr.partial_fit(d);
  // The epsilon-insensitive loss should mostly ignore the outliers.
  EXPECT_NEAR(svr.predict(std::vector<double>{0.5}), 1.0, 0.6);
}

TEST(IncrementalMlp, FitsNonlinearTarget) {
  stats::Rng rng(27);
  Dataset d(1);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(-2.0, 2.0);
    d.add(std::vector<double>{x}, x * x);
  }
  MlpConfig cfg;
  cfg.hidden = {32};
  cfg.epochs_per_batch = 30;
  IncrementalMlp mlp(cfg, 1);
  mlp.partial_fit(d);
  EXPECT_NEAR(mlp.predict(std::vector<double>{1.5}), 2.25, 0.5);
  EXPECT_NEAR(mlp.predict(std::vector<double>{-1.5}), 2.25, 0.5);
  EXPECT_NEAR(mlp.predict(std::vector<double>{0.0}), 0.0, 0.5);
}

}  // namespace
}  // namespace gsight::ml
