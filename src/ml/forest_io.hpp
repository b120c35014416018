// Persistence for incremental forests and datasets. A production Gsight
// controller trains incrementally for hours (§6.2: ~9k samples to reach
// ~1% error); losing the model on restart would mean re-converging from
// the offline dataset, so both the forest and its sample buffer round-trip
// through a line-oriented text format (same conventions as profile_io). A
// bare forest saves and loads through RandomForestRegressor::save/load.
#pragma once

#include <iosfwd>
#include <string>

#include "ml/dataset.hpp"
#include "ml/incremental_forest.hpp"
#include "ml/random_forest.hpp"

namespace gsight::ml {

void write_dataset(std::ostream& out, const Dataset& data);
Dataset read_dataset(std::istream& in);

/// Full incremental state: forest + sample buffer + configuration knobs
/// + the monotonic model version stamp + the updater's RNG stream, i.e.
/// everything needed to keep updating after reload *bit-identically* to
/// an uninterrupted run (format `gsight-irfr-v2`; the stamp-less v1
/// format is still readable and resumes at version 0 with a fresh
/// stream). The version stamp is what serve::SnapshotSlot orders model
/// hot-swaps by. Loading throws std::runtime_error on malformed input,
/// including a buffer whose width differs from the forest's feature
/// count.
void save_incremental_forest(const IncrementalForest& model,
                             const std::string& path);
void save_incremental_forest(const IncrementalForest& model,
                             std::ostream& out);
IncrementalForest load_incremental_forest(const std::string& path);
IncrementalForest load_incremental_forest(std::istream& in);

}  // namespace gsight::ml
