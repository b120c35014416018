// gsight-analyze: hot-path
#include "ml/random_forest.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <optional>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ml/thread_pool.hpp"

namespace gsight::ml {

void RandomForestRegressor::fit_one(const Dataset& data, std::size_t slot,
                                    std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto n = static_cast<std::size_t>(std::max(
      1.0, config_.bootstrap_fraction * static_cast<double>(data.size())));
  std::vector<std::size_t> rows(n);
  for (auto& r : rows) r = rng.uniform_index(data.size());
  DecisionTreeRegressor tree(config_.tree);
  tree.fit(data, rows, rng);
  trees_[slot] = std::move(tree);
}

void RandomForestRegressor::fit(const Dataset& data, stats::Rng& rng) {
  assert(!data.empty());
  feature_count_ = data.feature_count();
  trees_.assign(config_.n_trees, DecisionTreeRegressor(config_.tree));
  std::vector<std::uint64_t> seeds(config_.n_trees);
  for (auto& s : seeds) s = rng.next();
  // Prime the shared feature-major view on this thread before fanning
  // out: Dataset::columns() is lazy and not safe to first-build
  // concurrently.
  if (config_.tree.kernel == TreeKernel::kColumnar) data.columns();
  std::optional<ThreadPool> local;
  ThreadPool* pool = &ThreadPool::shared();
  if (config_.threads != 0) {
    local.emplace(config_.threads);
    pool = &*local;
  }
  pool->parallel_for(config_.n_trees,
                     [&](std::size_t i) { fit_one(data, i, seeds[i]); });
  rebuild_flat();
}

void RandomForestRegressor::rebuild_flat() {
  flat_offsets_.assign(trees_.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    flat_offsets_[t] = total;
    total += trees_[t].nodes().size();
  }
  flat_offsets_[trees_.size()] = total;
  flat_nodes_.clear();
  flat_nodes_.reserve(total);
  for (const auto& tree : trees_) {
    const auto nodes = tree.nodes();
    flat_nodes_.insert(flat_nodes_.end(), nodes.begin(), nodes.end());
  }
  blocked_.build(flat_nodes_, flat_offsets_);
}

double RandomForestRegressor::traverse(std::size_t tree,
                                       std::span<const double> x) const {
  const DecisionTreeRegressor::Node* base =
      flat_nodes_.data() + flat_offsets_[tree];
  std::uint32_t i = 0;
  for (;;) {
    const auto& node = base[i];
    if (node.feature == DecisionTreeRegressor::Node::kLeaf) return node.value;
    assert(node.feature < x.size());
    i = x[node.feature] <= node.threshold ? node.left : node.right;
  }
}

// noinline keeps exactly one copy of the branchy node walk: duplicated
// inlined copies (e.g. inside predict_batch_reference) measured up to
// 20% slower purely from code-placement luck, which would corrupt the
// reference timings the blocked kernels are judged against.
__attribute__((noinline)) double RandomForestRegressor::predict_reference(
    std::span<const double> x) const {
  if (trees_.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t t = 0; t < trees_.size(); ++t) sum += traverse(t, x);
  return sum / static_cast<double>(trees_.size());
}

std::vector<double> RandomForestRegressor::predict_batch_reference(
    const Matrix& xs) const {
  std::vector<double> out(xs.rows(), 0.0);
  for (std::size_t r = 0; r < xs.rows(); ++r) {
    out[r] = predict_reference(xs.row(r));
  }
  return out;
}

double RandomForestRegressor::predict(std::span<const double> x) const {
  if (trees_.empty()) return 0.0;
  // Leaf values land in a stack block for any realistic forest (deployed
  // IRFR runs 80–100 trees); the heap path only exists so oversized
  // configs stay correct.
  constexpr std::size_t kMaxStackTrees = 256;
  std::array<double, kMaxStackTrees> stack_leaves;
  std::vector<double> heap_leaves;
  std::span<double> leaves;
  if (trees_.size() <= kMaxStackTrees) {
    leaves = std::span<double>(stack_leaves.data(), trees_.size());
  } else {
    heap_leaves.resize(trees_.size());
    leaves = heap_leaves;
  }
  forest_kernel::leaves(blocked_, x, leaves);
  return forest_kernel::reduce_mean(leaves);
}

void RandomForestRegressor::predict_batch(const Matrix& xs,
                                          std::vector<double>& out) const {
  out.assign(xs.rows(), 0.0);
  if (trees_.empty() || xs.rows() == 0) return;
  if (xs.rows() >= forest_kernel::kGatherMinRows) {
    // Wide batch: trees outer, kLaneWidth rows per step — each tree's
    // breadth-first node block stays cache-resident while the whole
    // batch streams through it.
    forest_kernel::gather(blocked_, xs, out);
    return;
  }
  for (std::size_t r = 0; r < xs.rows(); ++r) {
    out[r] = predict(xs.row(r));
  }
}

std::vector<double> RandomForestRegressor::predict_batch(
    const Matrix& xs) const {
  std::vector<double> out;
  predict_batch(xs, out);
  return out;
}

std::vector<double> RandomForestRegressor::importance() const {
  std::vector<double> total(feature_count_, 0.0);
  double grand = 0.0;
  for (const auto& t : trees_) {
    const auto& imp = t.importance();
    for (std::size_t j = 0; j < imp.size(); ++j) {
      total[j] += imp[j];
      grand += imp[j];
    }
  }
  if (grand > 0.0) {
    for (auto& v : total) v /= grand;
  }
  return total;
}

void RandomForestRegressor::refresh_trees(const Dataset& data, std::size_t count,
                                          stats::Rng& rng) {
  if (!fitted()) {
    fit(data, rng);
    return;
  }
  if (count == 0) return;
  count = std::min(count, trees_.size());
  const auto slots = rng.sample_without_replacement(trees_.size(), count);
  std::vector<std::uint64_t> seeds(count);
  for (auto& s : seeds) s = rng.next();
  if (config_.tree.kernel == TreeKernel::kColumnar) data.columns();
  ThreadPool::shared().parallel_for(
      count, [&](std::size_t i) { fit_one(data, slots[i], seeds[i]); });
  rebuild_flat();
}


void RandomForestRegressor::save(std::ostream& out) const {
  out << std::setprecision(17);
  out << "forest " << trees_.size() << ' ' << feature_count_ << ' '
      << config_.n_trees << ' ' << config_.bootstrap_fraction << ' '
      << config_.tree.max_depth << ' ' << config_.tree.min_samples_split
      << ' ' << config_.tree.min_samples_leaf << ' '
      << config_.tree.max_features << ' '
      << static_cast<int>(config_.tree.split_mode) << '\n';
  for (const auto& tree : trees_) tree.save(out);
  if (!out) throw std::runtime_error("forest write failed");
}

void RandomForestRegressor::load(std::istream& in) {
  // Parse into locals and validate before committing anything: a header
  // or tree body that fails validation must not leave the forest
  // half-mutated.
  std::string tag;
  std::size_t tree_count = 0;
  std::size_t feature_count = 0;
  ForestConfig config;
  int split_mode = 0;
  if (!(in >> tag >> tree_count >> feature_count >> config.n_trees >>
        config.bootstrap_fraction >> config.tree.max_depth >>
        config.tree.min_samples_split >> config.tree.min_samples_leaf >>
        config.tree.max_features >> split_mode) ||
      tag != "forest") {
    throw std::runtime_error("forest parse error: header");
  }
  // Bounds checks: a corrupt or hostile header must fail cleanly, not
  // drive a multi-gigabyte allocation or an out-of-range enum.
  constexpr std::size_t kMaxTrees = 100000;
  if (tree_count > kMaxTrees || config.n_trees > kMaxTrees) {
    throw std::runtime_error("forest parse error: implausible tree count");
  }
  if (feature_count > DecisionTreeRegressor::kMaxFeatures) {
    throw std::runtime_error("forest parse error: implausible feature count");
  }
  if (!std::isfinite(config.bootstrap_fraction) ||
      config.bootstrap_fraction <= 0.0 || config.bootstrap_fraction > 1.0) {
    throw std::runtime_error(
        "forest parse error: bootstrap_fraction outside (0, 1]");
  }
  if (split_mode != static_cast<int>(SplitMode::kBest) &&
      split_mode != static_cast<int>(SplitMode::kRandom)) {
    throw std::runtime_error("forest parse error: unknown split mode");
  }
  if (config.tree.max_depth == 0 || config.tree.min_samples_split < 2 ||
      config.tree.min_samples_leaf == 0) {
    throw std::runtime_error("forest parse error: degenerate tree config");
  }
  config.tree.split_mode = static_cast<SplitMode>(split_mode);
  config.threads = config_.threads;  // runtime knob, not persisted
  // DecisionTreeRegressor::load checks each body's links; the forest
  // adds that every tree has nodes and the header's feature count.
  std::vector<DecisionTreeRegressor> trees(tree_count,
                                           DecisionTreeRegressor(config.tree));
  for (auto& tree : trees) {
    tree.load(in);
    if (!tree.fitted()) {
      throw std::runtime_error("forest parse error: empty tree");
    }
    if (tree.importance().size() != feature_count) {
      throw std::runtime_error(
          "forest parse error: tree feature count mismatch");
    }
  }
  config_ = config;
  feature_count_ = feature_count;
  trees_ = std::move(trees);
  rebuild_flat();
}

}  // namespace gsight::ml
