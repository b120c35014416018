#include "ml/dataset.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace gsight::ml {

void ColumnStore::sync(const Matrix& features) {
  if (features_ != features.cols() || rows_synced_ > features.rows()) {
    flat_.clear();
    features_ = features.cols();
    constant_.assign(features_, 1);
    stride_ = 0;
    rows_synced_ = 0;
  }
  const std::size_t begin = rows_synced_;
  const std::size_t end = features.rows();
  if (begin == end || features_ == 0) return;
  if (end > stride_) {
    // Geometric growth keeps appends amortised O(1) per element: columns
    // are re-packed at the wider stride only when the capacity doubles.
    const std::size_t new_stride = std::max(end, 2 * stride_);
    std::vector<double> wider(features_ * new_stride);
    for (std::size_t f = 0; f < features_; ++f) {
      std::copy_n(flat_.data() + f * stride_, rows_synced_,
                  wider.data() + f * new_stride);
    }
    flat_ = std::move(wider);
    stride_ = new_stride;
  }
  // Blocked transpose: each pass over a block of source rows writes every
  // column a contiguous run while the block's rows stay cached (row by
  // row, every value would be a write to a different column's line).
  constexpr std::size_t kBlockRows = 16;
  const double* src = features.flat().data();
  for (std::size_t r0 = begin; r0 < end; r0 += kBlockRows) {
    const std::size_t r1 = std::min(end, r0 + kBlockRows);
    for (std::size_t f = 0; f < features_; ++f) {
      double* dst = flat_.data() + f * stride_;
      for (std::size_t r = r0; r < r1; ++r) dst[r] = src[r * features_ + f];
    }
  }
  // Constant flags in a separate column-wise pass (folding the compare
  // into the transpose slows it): only columns still flagged are scanned,
  // only over the new rows, each up to its first differing value.
  for (std::size_t f = 0; f < features_; ++f) {
    if (constant_[f] == 0) continue;
    const double* col = flat_.data() + f * stride_;
    const double first = col[0];
    for (std::size_t r = begin; r < end; ++r) {
      if (!(col[r] == first)) {  // also true for any NaN
        constant_[f] = 0;
        break;
      }
    }
  }
  rows_synced_ = end;
}

const ColumnStore& Dataset::columns() const {
  columns_.sync(features_);
  return columns_;
}

void Dataset::add(std::span<const double> x, double y) {
  features_.push_row(x);
  targets_.push_back(y);
}

void Dataset::append(const Dataset& other) {
  // Checked before any row moves, so a wrong-width batch leaves this
  // dataset (and the model whose partial_fit appends it) untouched.
  // Matrix::push_row only asserts the width, which release builds drop.
  if (!other.empty() && feature_count() != 0 &&
      other.feature_count() != feature_count()) {
    throw std::invalid_argument(
        "Dataset::append: batch has " + std::to_string(other.feature_count()) +
        " features, dataset has " + std::to_string(feature_count()));
  }
  for (std::size_t i = 0; i < other.size(); ++i) add(other.x(i), other.y(i));
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(feature_count());
  for (std::size_t idx : indices) {
    assert(idx < size());
    out.add(x(idx), y(idx));
  }
  return out;
}

Dataset Dataset::head(std::size_t n) const {
  Dataset out(feature_count());
  const std::size_t m = std::min(n, size());
  for (std::size_t i = 0; i < m; ++i) out.add(x(i), y(i));
  return out;
}

std::pair<Dataset, Dataset> Dataset::split(double train_fraction,
                                           stats::Rng& rng) const {
  assert(train_fraction >= 0.0 && train_fraction <= 1.0);
  const auto order = rng.permutation(size());
  const auto cut = static_cast<std::size_t>(train_fraction *
                                            static_cast<double>(size()));
  Dataset train(feature_count());
  Dataset test(feature_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    (i < cut ? train : test).add(x(order[i]), y(order[i]));
  }
  return {std::move(train), std::move(test)};
}

void Dataset::shuffle(stats::Rng& rng) {
  const auto order = rng.permutation(size());
  Dataset out(feature_count());
  for (std::size_t idx : order) out.add(x(idx), y(idx));
  *this = std::move(out);
}

}  // namespace gsight::ml
