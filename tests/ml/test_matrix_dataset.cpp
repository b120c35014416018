#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/matrix.hpp"

namespace gsight::ml {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m.row(0)[1], 7.0);
}

TEST(Matrix, PushRowDefinesColumns) {
  Matrix m;
  const double r0[] = {1.0, 2.0};
  m.push_row(r0);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 2u);
  const double r1[] = {3.0, 4.0};
  m.push_row(r1);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, MatvecKnown) {
  Matrix m(2, 3);
  // [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
  for (std::size_t c = 0; c < 3; ++c) {
    m(0, c) = static_cast<double>(c + 1);
    m(1, c) = static_cast<double>(c + 4);
  }
  const std::vector<double> x{1.0, 1.0, 1.0};
  const auto y = m.matvec(x);
  EXPECT_EQ(y, (std::vector<double>{6.0, 15.0}));
}

TEST(Matrix, MatvecTransposedKnown) {
  Matrix m(2, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    m(0, c) = static_cast<double>(c + 1);
    m(1, c) = static_cast<double>(c + 4);
  }
  const std::vector<double> x{1.0, 2.0};
  // M^T x = [1+8, 2+10, 3+12] = [9, 12, 15]
  EXPECT_EQ(m.matvec_transposed(x), (std::vector<double>{9.0, 12.0, 15.0}));
}

TEST(Matrix, DotAndDistance) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 27.0);
}

TEST(Dataset, AddAndAccess) {
  Dataset d(2);
  d.add(std::vector<double>{1.0, 2.0}, 10.0);
  d.add(std::vector<double>{3.0, 4.0}, 20.0);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.feature_count(), 2u);
  EXPECT_DOUBLE_EQ(d.x(1)[0], 3.0);
  EXPECT_DOUBLE_EQ(d.y(0), 10.0);
}

TEST(Dataset, AppendConcatenates) {
  Dataset a(1), b(1);
  a.add(std::vector<double>{1.0}, 1.0);
  b.add(std::vector<double>{2.0}, 2.0);
  b.add(std::vector<double>{3.0}, 3.0);
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.y(2), 3.0);
}

TEST(Dataset, SubsetSelectsRows) {
  Dataset d(1);
  for (int i = 0; i < 5; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, i * 10.0);
  }
  const std::vector<std::size_t> idx{4, 0, 4};
  const auto s = d.subset(idx);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.y(0), 40.0);
  EXPECT_DOUBLE_EQ(s.y(1), 0.0);
  EXPECT_DOUBLE_EQ(s.y(2), 40.0);  // repetition allowed (bootstrap)
}

TEST(Dataset, HeadTruncates) {
  Dataset d(1);
  for (int i = 0; i < 5; ++i) {
    d.add(std::vector<double>{0.0}, static_cast<double>(i));
  }
  EXPECT_EQ(d.head(3).size(), 3u);
  EXPECT_EQ(d.head(99).size(), 5u);
}

TEST(Dataset, SplitPartitions) {
  Dataset d(1);
  for (int i = 0; i < 100; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, static_cast<double>(i));
  }
  stats::Rng rng(3);
  const auto [train, test] = d.split(0.8, rng);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(test.size(), 20u);
  // Every label appears exactly once across the two parts.
  std::vector<int> seen(100, 0);
  for (std::size_t i = 0; i < train.size(); ++i) {
    ++seen[static_cast<int>(train.y(i))];
  }
  for (std::size_t i = 0; i < test.size(); ++i) {
    ++seen[static_cast<int>(test.y(i))];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(Dataset, ShufflePreservesPairs) {
  Dataset d(1);
  for (int i = 0; i < 50; ++i) {
    d.add(std::vector<double>{static_cast<double>(i)}, i * 2.0);
  }
  stats::Rng rng(7);
  d.shuffle(rng);
  EXPECT_EQ(d.size(), 50u);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_DOUBLE_EQ(d.y(i), d.x(i)[0] * 2.0);  // pairing intact
  }
}

// --- ColumnStore ------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The mirror must hold exactly the source's values (bit for bit: -0.0
// and NaN included) in every column.
void expect_mirrors(const ColumnStore& cols, const Matrix& m) {
  ASSERT_EQ(cols.rows(), m.rows());
  ASSERT_EQ(cols.feature_count(), m.cols());
  for (std::size_t f = 0; f < m.cols(); ++f) {
    const auto col = cols.column(f);
    for (std::size_t r = 0; r < m.rows(); ++r) {
      EXPECT_TRUE(same_bits(col[r], m(r, f))) << "row " << r << " col " << f;
    }
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Columns: 0 all zero, 1 constant 2.5, 2 mixes +0.0 and -0.0, 3 starts
// with NaN, 4 constant until row `varies_from`, 5 a single late NaN at
// row `varies_from`, 6 dense.
std::vector<double> flag_row(std::size_t r, std::size_t varies_from) {
  const bool late = r >= varies_from;
  return {0.0,
          2.5,
          r % 2 == 0 ? 0.0 : -0.0,
          r == 0 ? kNaN : 1.0,
          late ? static_cast<double>(r) : 7.0,
          r == varies_from ? kNaN : 4.0,
          static_cast<double>(r) * 0.5};
}

std::vector<bool> flags(const ColumnStore& cols) {
  std::vector<bool> out;
  for (std::size_t f = 0; f < cols.feature_count(); ++f) {
    out.push_back(cols.constant(f));
  }
  return out;
}

TEST(ColumnStore, ConstantFlagsFollowIncrementalSyncs) {
  constexpr std::size_t kVaries = 23;
  Matrix m;
  ColumnStore cols;
  for (std::size_t r = 0; r < 5; ++r) m.push_row(flag_row(r, kVaries));
  cols.sync(m);
  expect_mirrors(cols, m);
  EXPECT_EQ(flags(cols),
            (std::vector<bool>{true, true, true, false, true, true, false}));
  // 5 -> 23 rows: column 4 and 5 still equal their first value; the
  // blocked transpose covers a full block and a ragged tail.
  for (std::size_t r = 5; r < kVaries; ++r) m.push_row(flag_row(r, kVaries));
  cols.sync(m);
  expect_mirrors(cols, m);
  EXPECT_EQ(flags(cols),
            (std::vector<bool>{true, true, true, false, true, true, false}));
  // Row 23 is the first to differ in column 4 and holds column 5's NaN.
  for (std::size_t r = kVaries; r < 40; ++r) m.push_row(flag_row(r, kVaries));
  cols.sync(m);
  expect_mirrors(cols, m);
  EXPECT_EQ(flags(cols),
            (std::vector<bool>{true, true, true, false, false, false, false}));
  // A no-op sync changes nothing.
  cols.sync(m);
  EXPECT_EQ(flags(cols),
            (std::vector<bool>{true, true, true, false, false, false, false}));
}

TEST(ColumnStore, ConstantFlagsSurviveStrideRegrowth) {
  // One row per sync: the per-column capacity regrows at 1, 2, 4, 8, ...
  // rows, re-packing the columns each time; values and flags must carry
  // over every re-pack.
  constexpr std::size_t kVaries = 9;
  Matrix m;
  ColumnStore cols;
  for (std::size_t r = 0; r < 20; ++r) {
    m.push_row(flag_row(r, kVaries));
    cols.sync(m);
    const bool before = r < kVaries;
    EXPECT_EQ(cols.constant(4), before) << "after row " << r;
    EXPECT_EQ(cols.constant(5), before) << "after row " << r;
    EXPECT_TRUE(cols.constant(2)) << "after row " << r;
    EXPECT_FALSE(cols.constant(3)) << "after row " << r;
    EXPECT_EQ(cols.constant(6), r == 0) << "after row " << r;
  }
  expect_mirrors(cols, m);
}

TEST(ColumnStore, RebuildRecomputesFlags) {
  Matrix wide;
  ColumnStore cols;
  for (std::size_t r = 0; r < 30; ++r) wide.push_row(flag_row(r, 10));
  cols.sync(wide);
  EXPECT_FALSE(cols.constant(4));

  // Shrink: the source now has fewer rows than were synced, so the
  // store rebuilds; over these rows column 4 is constant again.
  Matrix shorter;
  for (std::size_t r = 0; r < 8; ++r) shorter.push_row(flag_row(r, 10));
  cols.sync(shorter);
  expect_mirrors(cols, shorter);
  EXPECT_TRUE(cols.constant(4));
  EXPECT_FALSE(cols.constant(3));

  // Width change: rebuild at the new width, flags sized to it.
  Matrix narrow;
  for (std::size_t r = 0; r < 12; ++r) {
    narrow.push_row(std::vector<double>{1.0, static_cast<double>(r % 3)});
  }
  cols.sync(narrow);
  expect_mirrors(cols, narrow);
  EXPECT_EQ(flags(cols), (std::vector<bool>{true, false}));
}

TEST(ColumnStore, DatasetColumnsCarryFlags) {
  Dataset d(2);
  d.add(std::vector<double>{5.0, 1.0}, 0.0);
  d.add(std::vector<double>{5.0, 1.0}, 1.0);
  EXPECT_TRUE(d.columns().constant(0));
  EXPECT_TRUE(d.columns().constant(1));
  d.add(std::vector<double>{5.0, 2.0}, 2.0);
  EXPECT_TRUE(d.columns().constant(0));
  EXPECT_FALSE(d.columns().constant(1));
}

}  // namespace
}  // namespace gsight::ml
