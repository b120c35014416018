// Supervised-regression dataset: a feature matrix plus a target vector.
// Supports the operations the incremental learners need: append, subset,
// shuffle/split, and growing sample buffers. A lazily built feature-major
// mirror (ColumnStore) backs the columnar tree-training fast path.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {

/// Feature-major mirror of a row-major feature matrix: all columns in one
/// contiguous buffer at a fixed stride, so split scans in tree training
/// stride unit-length instead of `cols()` and `column(f)` is a pure
/// pointer offset (no per-column vector metadata between the scan and the
/// data). Syncs are incremental — rows appended to the source matrix
/// since the last sync are transposed in place; the row capacity grows
/// geometrically, so full re-transposes amortise away. That is what makes
/// IncrementalForest refreshes cheap: each partial_fit only pays for the
/// new batch, not the whole buffer.
class ColumnStore {
 public:
  std::size_t rows() const { return rows_synced_; }
  std::size_t feature_count() const { return features_; }
  std::span<const double> column(std::size_t f) const {
    return {flat_.data() + f * stride_, rows_synced_};
  }
  /// True while every synced value of column `f` compares equal (==) to
  /// the column's first value: vacuously true with no rows, never true
  /// once the column holds a NaN, and true for a mix of +0.0 and -0.0.
  /// Tree training skips such columns — no split can separate its rows.
  bool constant(std::size_t f) const { return constant_[f] != 0; }

  /// Mirror `features` exactly: appends rows [rows(), features.rows());
  /// rebuilds from scratch only if the source shrank or changed width.
  void sync(const Matrix& features);

 private:
  std::vector<double> flat_;      // features_ columns, each stride_ long
  std::vector<char> constant_;    // per column; see constant()
  std::size_t features_ = 0;
  std::size_t stride_ = 0;        // per-column row capacity
  std::size_t rows_synced_ = 0;
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t feature_count) : features_(0, feature_count) {}

  void add(std::span<const double> x, double y);
  /// Appends every row of `other`. Throws std::invalid_argument, adding
  /// nothing, when `other` has rows and both widths are set but differ.
  void append(const Dataset& other);

  std::size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }
  std::size_t feature_count() const { return features_.cols(); }

  std::span<const double> x(std::size_t i) const { return features_.row(i); }
  double y(std::size_t i) const { return targets_[i]; }
  const Matrix& features() const { return features_; }
  const std::vector<double>& targets() const { return targets_; }

  /// Rows selected by index (bootstrap resamples, CV folds, ...).
  Dataset subset(std::span<const std::size_t> indices) const;
  /// First `n` rows (for learning curves).
  Dataset head(std::size_t n) const;
  /// Random (train, test) split with the given training fraction.
  std::pair<Dataset, Dataset> split(double train_fraction,
                                    stats::Rng& rng) const;
  /// Deterministic shuffle of rows.
  void shuffle(stats::Rng& rng);

  /// Feature-major view of features(), built lazily and extended
  /// incrementally as rows are added. NOT thread-safe while it (re)builds:
  /// callers that share one Dataset across threads (forest training) must
  /// prime it with a single call before fanning out; afterwards concurrent
  /// use is read-only and safe.
  const ColumnStore& columns() const;

 private:
  Matrix features_;
  std::vector<double> targets_;
  mutable ColumnStore columns_;  // lazy cache; see columns()
};

}  // namespace gsight::ml
