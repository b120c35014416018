#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace gsight::ml {

namespace {

struct SplitCandidate {
  std::size_t feature = 0;
  double threshold = 0.0;
  double gain = -1.0;  // variance reduction * node weight
};

// Best threshold for one feature over rows[begin, end): sort by feature
// value, scan prefix sums of y and y^2, maximise variance reduction.
SplitCandidate best_split_for_feature(const Dataset& data,
                                      std::span<const std::size_t> rows,
                                      std::size_t feature,
                                      std::size_t min_leaf) {
  const std::size_t n = rows.size();
  thread_local std::vector<std::pair<double, double>> vy;  // (x_f, y)
  vy.clear();
  vy.reserve(n);
  for (std::size_t r : rows) vy.emplace_back(data.x(r)[feature], data.y(r));
  std::sort(vy.begin(), vy.end());
  if (vy.front().first == vy.back().first) return {};  // constant feature

  double total_sum = 0.0, total_sq = 0.0;
  for (const auto& [x, y] : vy) {
    total_sum += y;
    total_sq += y * y;
  }
  const double dn = static_cast<double>(n);
  const double parent_sse = total_sq - total_sum * total_sum / dn;

  SplitCandidate best;
  best.feature = feature;
  double left_sum = 0.0, left_sq = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    left_sum += vy[i].second;
    left_sq += vy[i].second * vy[i].second;
    if (vy[i].first == vy[i + 1].first) continue;  // can't split inside ties
    const std::size_t nl = i + 1;
    const std::size_t nr = n - nl;
    if (nl < min_leaf || nr < min_leaf) continue;
    const double right_sum = total_sum - left_sum;
    const double right_sq = total_sq - left_sq;
    const double sse = (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
                       (right_sq - right_sum * right_sum / static_cast<double>(nr));
    const double gain = parent_sse - sse;
    if (gain > best.gain) {
      best.gain = gain;
      best.threshold = 0.5 * (vy[i].first + vy[i + 1].first);
    }
  }
  return best;
}

// Extra-Trees style: draw one uniform threshold in (min, max) of the
// feature over this node's rows and evaluate its gain in a single pass.
SplitCandidate random_split_for_feature(const Dataset& data,
                                        std::span<const std::size_t> rows,
                                        std::size_t feature,
                                        std::size_t min_leaf,
                                        stats::Rng& rng) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  double total_sum = 0.0, total_sq = 0.0;
  for (std::size_t r : rows) {
    const double v = data.x(r)[feature];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    const double y = data.y(r);
    total_sum += y;
    total_sq += y * y;
  }
  if (lo == hi) return {};
  const double threshold = rng.uniform(lo, hi);

  double left_sum = 0.0, left_sq = 0.0;
  std::size_t nl = 0;
  for (std::size_t r : rows) {
    if (data.x(r)[feature] <= threshold) {
      const double y = data.y(r);
      left_sum += y;
      left_sq += y * y;
      ++nl;
    }
  }
  const std::size_t n = rows.size();
  const std::size_t nr = n - nl;
  if (nl < min_leaf || nr < min_leaf) return {};
  const double parent_sse =
      total_sq - total_sum * total_sum / static_cast<double>(n);
  const double right_sum = total_sum - left_sum;
  const double right_sq = total_sq - left_sq;
  const double sse =
      (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
      (right_sq - right_sum * right_sum / static_cast<double>(nr));
  SplitCandidate cand;
  cand.feature = feature;
  cand.threshold = threshold;
  cand.gain = parent_sse - sse;
  return cand;
}

// ---------------------------------------------------------------------------
// Columnar fast-path builder (TreeKernel::kColumnar).
//
// Bit-identical to the legacy kernel by construction:
//  * node statistics accumulate over the same std::partition-ordered
//    permutation of the bootstrap sample;
//  * kBest split scans visit (x, y) pairs in exactly the order the legacy
//    kernel's per-node sort produces — each feature's index list is sorted
//    once per tree by (x, y) and then stable-partitioned down the
//    recursion, so its restriction to any node is that node's sorted
//    sequence (ties in x carry the same ascending-y order the legacy
//    pair-sort yields, which matters because float accumulation is order
//    sensitive);
//  * the RNG call sequence (per-node feature sampling, kRandom
//    thresholds) is unchanged.
// What changes is purely mechanical: feature values are read from the
// dataset's feature-major ColumnStore with unit stride, and kBest's
// per-node gather+sort is replaced by the presorted lists. Above
// kPresortMaxFeatures the lists would dominate memory (d·n indices), so
// wide-feature kBest trees fall back to a per-node columnar gather+sort —
// same values, same comparator, still column-strided reads. Columns the
// ColumnStore flags constant are never scanned: every split path would
// return no candidate for them before any RNG draw.
class ColumnarBuilder {
 public:
  using Node = DecisionTreeRegressor::Node;

  /// Presorted index lists are kept only up to this feature count; the
  /// paper-scale 2 580-dim overlap codes train with kRandom, which never
  /// sorts at all.
  static constexpr std::size_t kPresortMaxFeatures = 512;

  ColumnarBuilder(const Dataset& data, const TreeConfig& config,
                  std::vector<Node>& nodes, std::vector<double>& importance,
                  stats::Rng& rng)
      : data_(data),
        cols_(data.columns()),
        config_(config),
        nodes_(nodes),
        importance_(importance),
        rng_(rng) {}

  void run(std::span<const std::size_t> rows) {
    const std::size_t n = rows.size();
    sample_row_.assign(rows.begin(), rows.end());
    ys_.resize(n);
    for (std::size_t p = 0; p < n; ++p) ys_[p] = data_.y(rows[p]);
    pos_.resize(n);
    std::iota(pos_.begin(), pos_.end(), std::uint32_t{0});
    left_mask_.assign(n, 0);
    random_mode_ = config_.split_mode == SplitMode::kRandom;
    if (random_mode_) {
      node_ys_.resize(n);
      node_rows_.resize(n);
      vals_.resize(n);
      sel_.resize(n);
    }
    presorted_ = config_.split_mode == SplitMode::kBest &&
                 data_.feature_count() <= kPresortMaxFeatures;
    if (presorted_) presort();
    build(0, n, 0);
  }

 private:
  double xval(std::size_t feature, std::uint32_t p) const {
    return cols_.column(feature)[sample_row_[p]];
  }

  // Sort each feature's index list once for the whole tree, by (x, y) —
  // the same lexicographic order the legacy kernel's std::sort of
  // (x, y) pairs produces at every node.
  void presort() {
    const std::size_t d = data_.feature_count();
    const std::size_t n = pos_.size();
    sorted_.resize(d * n);
    scratch_.resize(n);
    for (std::size_t f = 0; f < d; ++f) {
      std::uint32_t* seg = sorted_.data() + f * n;
      std::iota(seg, seg + n, std::uint32_t{0});
      const auto col = cols_.column(f);
      std::sort(seg, seg + n, [&](std::uint32_t a, std::uint32_t b) {
        const double xa = col[sample_row_[a]];
        const double xb = col[sample_row_[b]];
        if (xa != xb) return xa < xb;
        return ys_[a] < ys_[b];
      });
    }
  }

  // kBest over a presorted segment: the legacy scan with the sort already
  // done. Totals accumulate in sorted order, exactly as the legacy kernel
  // sums its sorted pair vector.
  SplitCandidate best_split_presorted(std::size_t begin, std::size_t end,
                                      std::size_t feature,
                                      std::size_t min_leaf) const {
    const std::uint32_t* seg = sorted_.data() + feature * pos_.size() + begin;
    const std::size_t n = end - begin;
    const auto col = cols_.column(feature);
    const auto x_at = [&](std::size_t i) { return col[sample_row_[seg[i]]]; };
    if (x_at(0) == x_at(n - 1)) return {};  // constant feature

    double total_sum = 0.0, total_sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double y = ys_[seg[i]];
      total_sum += y;
      total_sq += y * y;
    }
    const double dn = static_cast<double>(n);
    const double parent_sse = total_sq - total_sum * total_sum / dn;

    SplitCandidate best;
    best.feature = feature;
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double y = ys_[seg[i]];
      left_sum += y;
      left_sq += y * y;
      if (x_at(i) == x_at(i + 1)) continue;  // can't split inside ties
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const double sse =
          (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
          (right_sq - right_sum * right_sum / static_cast<double>(nr));
      const double gain = parent_sse - sse;
      if (gain > best.gain) {
        best.gain = gain;
        best.threshold = 0.5 * (x_at(i) + x_at(i + 1));
      }
    }
    return best;
  }

  // kBest fallback for wide feature spaces: per-node gather+sort like the
  // legacy kernel, but gathering from the feature column instead of
  // striding across rows.
  SplitCandidate best_split_gathered(std::size_t begin, std::size_t end,
                                     std::size_t feature,
                                     std::size_t min_leaf) const {
    const std::size_t n = end - begin;
    const auto col = cols_.column(feature);
    thread_local std::vector<std::pair<double, double>> vy;  // (x_f, y)
    vy.clear();
    vy.reserve(n);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t p = pos_[i];
      vy.emplace_back(col[sample_row_[p]], ys_[p]);
    }
    std::sort(vy.begin(), vy.end());
    if (vy.front().first == vy.back().first) return {};  // constant feature

    double total_sum = 0.0, total_sq = 0.0;
    for (const auto& [x, y] : vy) {
      total_sum += y;
      total_sq += y * y;
    }
    const double dn = static_cast<double>(n);
    const double parent_sse = total_sq - total_sum * total_sum / dn;

    SplitCandidate best;
    best.feature = feature;
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      left_sum += vy[i].second;
      left_sq += vy[i].second * vy[i].second;
      if (vy[i].first == vy[i + 1].first) continue;
      const std::size_t nl = i + 1;
      const std::size_t nr = n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      const double right_sum = total_sum - left_sum;
      const double right_sq = total_sq - left_sq;
      const double sse =
          (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
          (right_sq - right_sum * right_sum / static_cast<double>(nr));
      const double gain = parent_sse - sse;
      if (gain > best.gain) {
        best.gain = gain;
        best.threshold = 0.5 * (vy[i].first + vy[i + 1].first);
      }
    }
    return best;
  }

  // Extra-Trees split. Same draws, same accumulation orders, same gain
  // bits as the legacy loop — restructured around what actually bounds
  // it (FP dependency chains and a ~50% mispredicted branch, not reads):
  //  * node totals are hoisted: the legacy kernel re-accumulates
  //    total_sum/total_sq identically for every candidate feature, so the
  //    once-per-node values from build() are the same bits;
  //  * column values gather into a contiguous scratch while min/max runs
  //    over four independent lanes — min/max are associative, and a ±0.0
  //    representative difference is invisible through lo == hi and
  //    rng.uniform(lo, hi), so the lane split cannot change the tree;
  //  * the left-side ys compact branchlessly in node order and are then
  //    summed sequentially: the same adds in the same order as the legacy
  //    guarded loop, minus its unpredictable branch.
  SplitCandidate random_split(std::size_t begin, std::size_t end,
                              std::size_t feature, std::size_t min_leaf,
                              double total_sum, double total_sq,
                              double parent_sse, const double* next_col) {
    const double* __restrict col = cols_.column(feature).data();
    const std::uint32_t* __restrict rows = node_rows_.data() + begin;
    const std::size_t n = end - begin;
    double* __restrict vals = vals_.data();
    // One fused pass: gather this feature's values, track min/max over
    // four independent lanes, and request the next candidate feature's
    // lines — at deep nodes the scan is latency-bound on cold column
    // reads, not on arithmetic.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double lo0 = kInf, lo1 = kInf, lo2 = kInf, lo3 = kInf;
    double hi0 = -kInf, hi1 = -kInf, hi2 = -kInf, hi3 = -kInf;
    std::size_t i = 0;
    if (next_col != nullptr) {
      for (; i + 4 <= n; i += 4) {
        __builtin_prefetch(next_col + rows[i]);
        __builtin_prefetch(next_col + rows[i + 1]);
        __builtin_prefetch(next_col + rows[i + 2]);
        __builtin_prefetch(next_col + rows[i + 3]);
        const double v0 = col[rows[i]];
        const double v1 = col[rows[i + 1]];
        const double v2 = col[rows[i + 2]];
        const double v3 = col[rows[i + 3]];
        vals[i] = v0;
        vals[i + 1] = v1;
        vals[i + 2] = v2;
        vals[i + 3] = v3;
        lo0 = std::min(lo0, v0);
        lo1 = std::min(lo1, v1);
        lo2 = std::min(lo2, v2);
        lo3 = std::min(lo3, v3);
        hi0 = std::max(hi0, v0);
        hi1 = std::max(hi1, v1);
        hi2 = std::max(hi2, v2);
        hi3 = std::max(hi3, v3);
      }
    } else {
      for (; i + 4 <= n; i += 4) {
        const double v0 = col[rows[i]];
        const double v1 = col[rows[i + 1]];
        const double v2 = col[rows[i + 2]];
        const double v3 = col[rows[i + 3]];
        vals[i] = v0;
        vals[i + 1] = v1;
        vals[i + 2] = v2;
        vals[i + 3] = v3;
        lo0 = std::min(lo0, v0);
        lo1 = std::min(lo1, v1);
        lo2 = std::min(lo2, v2);
        lo3 = std::min(lo3, v3);
        hi0 = std::max(hi0, v0);
        hi1 = std::max(hi1, v1);
        hi2 = std::max(hi2, v2);
        hi3 = std::max(hi3, v3);
      }
    }
    for (; i < n; ++i) {
      const double v = col[rows[i]];
      if (next_col != nullptr) __builtin_prefetch(next_col + rows[i]);
      vals[i] = v;
      lo0 = std::min(lo0, v);
      hi0 = std::max(hi0, v);
    }
    const double lo = std::min(std::min(lo0, lo1), std::min(lo2, lo3));
    const double hi = std::max(std::max(hi0, hi1), std::max(hi2, hi3));
    if (lo == hi) return {};
    const double threshold = rng_.uniform(lo, hi);

    const double* __restrict ys_node = node_ys_.data() + begin;
    double* __restrict sel = sel_.data();
    std::size_t nl = 0;
    for (std::size_t j = 0; j < n; ++j) {
      sel[nl] = ys_node[j];
      nl += vals[j] <= threshold ? 1u : 0u;
    }
    const std::size_t nr = n - nl;
    if (nl < min_leaf || nr < min_leaf) return {};
    double left_sum = 0.0, left_sq = 0.0;
    for (std::size_t j = 0; j < nl; ++j) {
      const double y = sel[j];
      left_sum += y;
      left_sq += y * y;
    }
    const double right_sum = total_sum - left_sum;
    const double right_sq = total_sq - left_sq;
    const double sse =
        (left_sq - left_sum * left_sum / static_cast<double>(nl)) +
        (right_sq - right_sum * right_sum / static_cast<double>(nr));
    SplitCandidate cand;
    cand.feature = feature;
    cand.threshold = threshold;
    cand.gain = parent_sse - sse;
    return cand;
  }

  std::uint32_t build(std::size_t begin, std::size_t end, std::size_t depth) {
    const std::size_t n = end - begin;
    double sum = 0.0, sq = 0.0;
    if (random_mode_) {
      // Also stage the node's ys and dataset rows contiguously for
      // random_split (one indirection instead of two per scanned value);
      // children overwrite their subrange only after this node's splits
      // are done.
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t p = pos_[i];
        const double y = ys_[p];
        node_ys_[i] = y;
        node_rows_[i] = static_cast<std::uint32_t>(sample_row_[p]);
        sum += y;
        sq += y * y;
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        const double y = ys_[pos_[i]];
        sum += y;
        sq += y * y;
      }
    }
    const double mean = sum / static_cast<double>(n);
    const double sse = sq - sum * mean;

    const auto make_leaf = [&] {
      Node leaf;
      leaf.value = mean;
      nodes_.push_back(leaf);
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    };

    if (depth >= config_.max_depth || n < config_.min_samples_split ||
        sse <= 1e-12) {
      return make_leaf();
    }

    const std::size_t d = data_.feature_count();
    std::size_t k = config_.max_features == 0
                        ? static_cast<std::size_t>(std::llround(std::sqrt(
                              static_cast<double>(d))))
                        : config_.max_features;
    k = std::clamp<std::size_t>(k, 1, d);

    // Feature-independent node totals: every legacy per-feature pass
    // accumulates them over the same ys in the same order, so computing
    // them once reproduces the per-feature values bit for bit. The
    // parent SSE keeps the legacy expression (sum·sum/n, not sum·mean —
    // they round differently).
    const double parent_sse = sq - sum * sum / static_cast<double>(n);

    SplitCandidate best;
    rng_.sample_without_replacement(d, k, feature_sample_);
    // A column constant over the whole dataset is constant at every node,
    // and every split path returns no candidate for it before drawing
    // from the RNG (kRandom on lo == hi, kBest on equal first and last
    // sorted values). Dropping it keeps the survivors' order, so the
    // strict-> winner, the draws and the tree are unchanged.
    std::erase_if(feature_sample_,
                  [&](std::size_t f) { return cols_.constant(f); });
    for (std::size_t c = 0; c < feature_sample_.size(); ++c) {
      const std::size_t f = feature_sample_[c];
      SplitCandidate cand;
      if (config_.split_mode == SplitMode::kBest) {
        cand = presorted_
                   ? best_split_presorted(begin, end, f,
                                          config_.min_samples_leaf)
                   : best_split_gathered(begin, end, f,
                                         config_.min_samples_leaf);
      } else {
        const double* next_col =
            c + 1 < feature_sample_.size()
                ? cols_.column(feature_sample_[c + 1]).data()
                : nullptr;
        cand = random_split(begin, end, f, config_.min_samples_leaf, sum, sq,
                            parent_sse, next_col);
      }
      if (cand.gain > best.gain) best = cand;
    }
    if (best.gain <= 0.0) return make_leaf();

    importance_[best.feature] += best.gain;

    // Mark each sample's side once, then partition the position array with
    // the same std::partition the legacy kernel applies to its row array —
    // identical predicate sequence, identical permutation, so child node
    // statistics accumulate in the same order.
    const auto col = cols_.column(best.feature);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t p = pos_[i];
      left_mask_[p] =
          col[sample_row_[p]] <= best.threshold ? char{1} : char{0};
    }
    const auto mid_it =
        std::partition(pos_.begin() + static_cast<std::ptrdiff_t>(begin),
                       pos_.begin() + static_cast<std::ptrdiff_t>(end),
                       [&](std::uint32_t p) { return left_mask_[p] != 0; });
    const auto mid = static_cast<std::size_t>(mid_it - pos_.begin());
    assert(mid > begin && mid < end);

    // Stable-partition every presorted list's segment so each child keeps
    // its (x, y)-sorted order.
    if (presorted_) {
      const std::size_t total = pos_.size();
      for (std::size_t f = 0; f < d; ++f) {
        std::uint32_t* seg = sorted_.data() + f * total;
        std::size_t write = begin;
        std::size_t spill = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t p = seg[i];
          if (left_mask_[p] != 0) {
            seg[write++] = p;
          } else {
            scratch_[spill++] = p;
          }
        }
        std::copy(scratch_.begin(),
                  scratch_.begin() + static_cast<std::ptrdiff_t>(spill),
                  seg + write);
      }
    }

    Node node;
    node.feature = static_cast<std::uint32_t>(best.feature);
    node.threshold = best.threshold;
    nodes_.push_back(node);
    const auto self = static_cast<std::uint32_t>(nodes_.size() - 1);
    const std::uint32_t left = build(begin, mid, depth + 1);
    const std::uint32_t right = build(mid, end, depth + 1);
    nodes_[self].left = left;
    nodes_[self].right = right;
    return self;
  }

  const Dataset& data_;
  const ColumnStore& cols_;
  const TreeConfig& config_;
  std::vector<Node>& nodes_;
  std::vector<double>& importance_;
  stats::Rng& rng_;

  std::vector<std::size_t> sample_row_;  // position -> dataset row (fixed)
  std::vector<double> ys_;               // position -> target
  std::vector<std::uint32_t> pos_;       // partitioned like legacy `rows`
  std::vector<char> left_mask_;          // position -> goes left at split
  bool random_mode_ = false;
  std::vector<double> node_ys_;          // current node's ys, contiguous
  std::vector<std::uint32_t> node_rows_; // current node's dataset rows
  std::vector<double> vals_;             // scratch: node's column values
  std::vector<double> sel_;              // scratch: compacted left-side ys
  std::vector<std::size_t> feature_sample_;  // per-node candidate features
  bool presorted_ = false;
  std::vector<std::uint32_t> sorted_;    // d segments of n positions each
  std::vector<std::uint32_t> scratch_;   // spill side of stable partitions
};

}  // namespace

void DecisionTreeRegressor::fit(const Dataset& data,
                                std::span<const std::size_t> rows,
                                stats::Rng& rng) {
  assert(!rows.empty());
  nodes_.clear();
  importance_.assign(data.feature_count(), 0.0);
  nodes_.reserve(2 * rows.size());
  if (config_.kernel == TreeKernel::kColumnar) {
    ColumnarBuilder builder(data, config_, nodes_, importance_, rng);
    builder.run(rows);
    return;
  }
  std::vector<std::size_t> work(rows.begin(), rows.end());
  build(data, work, 0, work.size(), 0, rng);
}

void DecisionTreeRegressor::fit(const Dataset& data, stats::Rng& rng) {
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit(data, rows, rng);
}

std::uint32_t DecisionTreeRegressor::build(const Dataset& data,
                                           std::vector<std::size_t>& rows,
                                           std::size_t begin, std::size_t end,
                                           std::size_t depth, stats::Rng& rng) {
  const std::size_t n = end - begin;
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double y = data.y(rows[i]);
    sum += y;
    sq += y * y;
  }
  const double mean = sum / static_cast<double>(n);
  const double sse = sq - sum * mean;

  const auto make_leaf = [&] {
    Node leaf;
    leaf.value = mean;
    nodes_.push_back(leaf);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  };

  if (depth >= config_.max_depth || n < config_.min_samples_split ||
      sse <= 1e-12) {
    return make_leaf();
  }

  const std::size_t d = data.feature_count();
  std::size_t k = config_.max_features == 0
                      ? static_cast<std::size_t>(std::llround(std::sqrt(
                            static_cast<double>(d))))
                      : config_.max_features;
  k = std::clamp<std::size_t>(k, 1, d);

  const std::span<const std::size_t> node_rows(rows.data() + begin, n);
  SplitCandidate best;
  const auto features = rng.sample_without_replacement(d, k);
  for (std::size_t f : features) {
    const auto cand =
        config_.split_mode == SplitMode::kBest
            ? best_split_for_feature(data, node_rows, f,
                                     config_.min_samples_leaf)
            : random_split_for_feature(data, node_rows, f,
                                       config_.min_samples_leaf, rng);
    if (cand.gain > best.gain) best = cand;
  }
  if (best.gain <= 0.0) return make_leaf();

  importance_[best.feature] += best.gain;

  // Partition rows[begin, end) around the threshold.
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t r) {
        return data.x(r)[best.feature] <= best.threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - rows.begin());
  assert(mid > begin && mid < end);

  Node node;
  node.feature = static_cast<std::uint32_t>(best.feature);
  node.threshold = best.threshold;
  nodes_.push_back(node);
  const auto self = static_cast<std::uint32_t>(nodes_.size() - 1);
  const std::uint32_t left = build(data, rows, begin, mid, depth + 1, rng);
  const std::uint32_t right = build(data, rows, mid, end, depth + 1, rng);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

double DecisionTreeRegressor::predict(std::span<const double> x) const {
  assert(fitted());
  std::uint32_t i = 0;
  for (;;) {
    const Node& node = nodes_[i];
    if (node.feature == Node::kLeaf) return node.value;
    assert(node.feature < x.size());
    i = x[node.feature] <= node.threshold ? node.left : node.right;
  }
}

std::size_t DecisionTreeRegressor::depth() const {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the implicit tree.
  std::vector<std::pair<std::uint32_t, std::size_t>> stack{{0, 1}};
  std::size_t best = 0;
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& node = nodes_[i];
    if (node.feature != Node::kLeaf) {
      stack.emplace_back(node.left, d + 1);
      stack.emplace_back(node.right, d + 1);
    }
  }
  return best;
}


void DecisionTreeRegressor::save(std::ostream& out) const {
  out << std::setprecision(17);
  out << "tree " << nodes_.size() << ' ' << importance_.size() << '\n';
  for (const Node& n : nodes_) {
    out << n.feature << ' ' << n.threshold << ' ' << n.left << ' ' << n.right
        << ' ' << n.value << '\n';
  }
  for (double v : importance_) out << v << ' ';
  out << '\n';
  if (!out) throw std::runtime_error("tree write failed");
}

void DecisionTreeRegressor::load(std::istream& in) {
  // Parse into locals and check the links before committing anything:
  // inference flattens the node array by following child links, so a
  // body that is not a tree must fail here, not index out of bounds
  // there.
  std::string tag;
  std::size_t node_count = 0, feature_count = 0;
  if (!(in >> tag >> node_count >> feature_count) || tag != "tree") {
    throw std::runtime_error("tree parse error: header");
  }
  if (node_count > kMaxNodes) {
    throw std::runtime_error("tree parse error: implausible node count");
  }
  if (feature_count > kMaxFeatures) {
    throw std::runtime_error("tree parse error: implausible feature count");
  }
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < node_count; ++i) {
    Node n;
    if (!(in >> n.feature >> n.threshold >> n.left >> n.right >> n.value)) {
      throw std::runtime_error("tree parse error: node");
    }
    nodes.push_back(n);
  }
  std::vector<double> importance(feature_count, 0.0);
  for (double& v : importance) {
    if (!(in >> v)) throw std::runtime_error("tree parse error: importance");
  }
  // Children lie strictly after their parent and every non-root node has
  // exactly one parent, so following parents from any node ends at the
  // root: the links form one tree.
  std::vector<char> parents(node_count, 0);
  for (std::size_t i = 0; i < node_count; ++i) {
    const Node& n = nodes[i];
    if (n.feature == Node::kLeaf) continue;
    if (n.feature >= feature_count) {
      throw std::runtime_error("tree parse error: feature out of range");
    }
    for (const std::uint32_t child : {n.left, n.right}) {
      if (child <= i || child >= node_count) {
        throw std::runtime_error("tree parse error: child out of range");
      }
      if (++parents[child] > 1) {
        throw std::runtime_error("tree parse error: shared child");
      }
    }
  }
  for (std::size_t i = 1; i < node_count; ++i) {
    if (parents[i] == 0) {
      throw std::runtime_error("tree parse error: unreachable node");
    }
  }
  nodes_ = std::move(nodes);
  importance_ = std::move(importance);
}

}  // namespace gsight::ml
