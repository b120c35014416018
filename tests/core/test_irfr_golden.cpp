// Golden IRFR dumps. The deployed incremental forest (core's
// deployed_irfr_config) is trained on three fixed streams, and the full
// save_incremental_forest text (forest, sample buffer, updater RNG
// state) is hashed (FNV-1a, 64-bit) after the initial fit and after the
// last partial_fit round. The constants were recorded before the
// columnar trainer learned to skip constant columns; they pin what IRFR
// computes independently of which training kernel computes it, so the
// row-major reference kernel can go without losing the check. Re-record
// a constant only for an intended model change, and say so in the
// commit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "ml/forest_io.hpp"
#include "stats/rng.hpp"

namespace gsight::core {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t model_hash(const ml::IncrementalForest& model) {
  std::ostringstream out;
  ml::save_incremental_forest(model, out);
  return fnv1a(out.str());
}

// Overlap-code geometry (core/encoder.hpp, paper scale): 10 workload
// slots of R then U (8 servers x 16 entries each), then D[10] and T[10].
constexpr std::size_t kSlots = 10;
constexpr std::size_t kServers = 8;
constexpr std::size_t kWidth = 16;
constexpr std::size_t kMatrix = kServers * kWidth;
constexpr std::size_t kSlotWidth = 2 * kMatrix;
constexpr std::size_t kDims = kSlots * kSlotWidth + 2 * kSlots;  // 2 580

double quantised(stats::Rng& rng, double hi) {
  return std::round(rng.uniform(0.0, hi) * 4.0) / 4.0;
}

/// Rows shaped like the study's overlap codes: 2 to `max_live` live
/// slots, each occupying a few server rows; R entries 12-15 stay zero
/// (reserved), the target's start delay D[0] stays zero, and every slot
/// past `max_live` is all zero. Raising `max_live` in a later batch makes
/// that slot's columns vary for the first time mid-stream.
ml::Dataset overlap_batch(std::size_t rows, std::size_t max_live,
                          stats::Rng& rng) {
  ml::Dataset d(kDims);
  std::vector<double> x(kDims);
  for (std::size_t i = 0; i < rows; ++i) {
    std::fill(x.begin(), x.end(), 0.0);
    const std::size_t live = 2 + rng.uniform_index(max_live - 1);
    double load = 0.0;
    for (std::size_t slot = 0; slot < live; ++slot) {
      const std::size_t base = slot * kSlotWidth;
      // Canonical server order: occupied rows first.
      const std::size_t occupied = 1 + rng.uniform_index(3);
      for (std::size_t srv = 0; srv < occupied; ++srv) {
        for (std::size_t k = 0; k < 12; ++k) {
          x[base + srv * kWidth + k] = quantised(rng, 4.0);
        }
        for (std::size_t k = 0; k < kWidth; ++k) {
          x[base + kMatrix + srv * kWidth + k] = quantised(rng, 10.0);
        }
        load += x[base + kMatrix + srv * kWidth];
      }
      const std::size_t temporal = kSlots * kSlotWidth;
      if (slot > 0) x[temporal + slot] = quantised(rng, 30.0);
      if (slot > 0) x[temporal + kSlots + slot] = 60.0 + quantised(rng, 60.0);
    }
    const double y = 1.0 + 0.02 * load + 0.1 * static_cast<double>(live) +
                     0.01 * rng.normal();
    d.add(x, y);
  }
  return d;
}

ml::Dataset dense_batch(std::size_t rows, stats::Rng& rng) {
  ml::Dataset d(kDims);
  std::vector<double> x(kDims);
  for (std::size_t i = 0; i < rows; ++i) {
    for (auto& v : x) v = rng.uniform();
    d.add(x, x[0] - 0.5 * x[1] + 0.1 * rng.normal());
  }
  return d;
}

struct GoldenRun {
  std::uint64_t initial = 0;
  std::uint64_t last = 0;
};

constexpr std::size_t kInitialRows = 160;
constexpr std::size_t kRounds = 6;
constexpr std::size_t kBatchRows = 32;  // the online batch size

GoldenRun run_overlap(std::size_t max_refit_rows) {
  auto cfg = deployed_irfr_config();
  cfg.max_refit_rows = max_refit_rows;
  ml::IncrementalForest model(cfg, 2024);
  stats::Rng data_rng(77);
  GoldenRun run;
  model.partial_fit(overlap_batch(kInitialRows, 3, data_rng));
  run.initial = model_hash(model);
  for (std::size_t round = 0; round < kRounds; ++round) {
    // From the third round on, batches also fill a fourth slot.
    model.partial_fit(overlap_batch(kBatchRows, round < 2 ? 3 : 4, data_rng));
  }
  run.last = model_hash(model);
  return run;
}

TEST(IrfrGolden, OverlapShapedStream) {
  const auto run = run_overlap(deployed_irfr_config().max_refit_rows);
  EXPECT_EQ(hex(run.initial), "0x2fa27ea00d9b2d48");
  EXPECT_EQ(hex(run.last), "0x389f45976df21ef0");
}

TEST(IrfrGolden, DenseStream) {
  ml::IncrementalForest model(deployed_irfr_config(), 2025);
  stats::Rng data_rng(78);
  model.partial_fit(dense_batch(kInitialRows, data_rng));
  const auto initial = model_hash(model);
  for (std::size_t round = 0; round < kRounds; ++round) {
    model.partial_fit(dense_batch(kBatchRows, data_rng));
  }
  EXPECT_EQ(hex(initial), "0xa2ecf31b9d002199");
  EXPECT_EQ(hex(model_hash(model)), "0x72c9ad55db97315e");
}

TEST(IrfrGolden, CappedRefitStream) {
  // Every refit trains on a fresh subsample of 120 of the 160-352
  // buffered rows.
  const auto run = run_overlap(120);
  EXPECT_EQ(hex(run.initial), "0x846a03da76d4703c");
  EXPECT_EQ(hex(run.last), "0x671dc4cd0bb384e5");
}

}  // namespace
}  // namespace gsight::core
