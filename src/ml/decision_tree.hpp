// CART regression tree: variance-reduction splits, depth / leaf-size
// stopping rules, and per-feature random subsampling at each split (the
// randomness that, together with bagging, makes the forest robust to the
// high-dimensional overlap-coded feature vectors — §3.4 of the paper).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {

/// How candidate thresholds are chosen at a split.
///   kBest   — exhaustive scan over sorted feature values (classic CART);
///             most accurate, O(n log n) per feature per node.
///   kRandom — one uniform-random threshold per candidate feature
///             (Extra-Trees style); O(n) per feature per node. Used for the
///             2 580-dimensional overlap-coded vectors where exhaustive
///             scanning would dominate training time.
enum class SplitMode { kBest, kRandom };

/// Which training kernel builds the tree. Both produce bit-identical
/// trees (same splits, thresholds, node order, importances, RNG stream);
/// they differ only in memory access pattern:
///   kColumnar — feature-major scans over the dataset's ColumnStore, with
///               per-tree presorted index lists (sklearn/LightGBM style)
///               replacing kBest's per-node gather+sort. The default.
///   kLegacy   — the original row-major gather kernel. It stays as the
///               independent reference the columnar kernel is checked
///               against (ForestEquivalence.*, ConstantColumnEquivalence.*
///               in tests/ml/), and perfbench/study.cpp passes this knob
///               through core::make_model, so removing it is a benchmark
///               change.
enum class TreeKernel { kColumnar, kLegacy };

struct TreeConfig {
  std::size_t max_depth = 24;
  std::size_t min_samples_split = 4;
  std::size_t min_samples_leaf = 2;
  /// Features examined per split; 0 means sqrt(feature_count).
  std::size_t max_features = 0;
  SplitMode split_mode = SplitMode::kBest;
  /// Training kernel; runtime knob, not persisted by save()/load().
  TreeKernel kernel = TreeKernel::kColumnar;
};

class DecisionTreeRegressor {
 public:
  /// Flat tree node. Public so BlockedForest::build can re-lay every
  /// tree's nodes into one cache-friendly inference buffer.
  struct Node {
    // Leaf when feature == kLeaf; then `value` is the prediction.
    static constexpr std::uint32_t kLeaf = 0xFFFFFFFFu;
    std::uint32_t feature = kLeaf;
    double threshold = 0.0;
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    double value = 0.0;
  };

  explicit DecisionTreeRegressor(TreeConfig config = {}) : config_(config) {}

  /// Train on the rows of `data` selected by `rows` (with repetition
  /// allowed, so bootstrap samples pass their index multisets directly).
  void fit(const Dataset& data, std::span<const std::size_t> rows,
           stats::Rng& rng);
  /// Train on all rows.
  void fit(const Dataset& data, stats::Rng& rng);

  double predict(std::span<const double> x) const;
  bool fitted() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t depth() const;
  /// The flat node array (root at index 0).
  std::span<const Node> nodes() const { return nodes_; }

  /// Sum of weighted variance reductions contributed by each feature
  /// (unnormalised impurity importance).
  const std::vector<double>& importance() const { return importance_; }

  /// Bounds load() enforces before it allocates for a header's counts.
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 24;
  static constexpr std::size_t kMaxFeatures = 1000000;

  /// Serialise / restore the fitted tree (line-oriented text; see
  /// ml/forest_io.hpp). load() throws std::runtime_error on malformed
  /// input and then leaves the tree unchanged. Besides parse errors it
  /// rejects a body that is not a tree: an internal node whose feature is
  /// not below the importance length, a child outside (node, node_count),
  /// or a non-root node that is not the child of exactly one internal
  /// node.
  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  std::uint32_t build(const Dataset& data, std::vector<std::size_t>& rows,
                      std::size_t begin, std::size_t end, std::size_t depth,
                      stats::Rng& rng);

  TreeConfig config_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace gsight::ml
