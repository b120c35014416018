#include "ml/forest_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ml/metrics.hpp"
#include "stats/rng.hpp"

namespace gsight::ml {
namespace {

Dataset make_data(std::size_t n, stats::Rng& rng) {
  Dataset d(4);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-2.0, 2.0);
    const double b = rng.uniform(-2.0, 2.0);
    d.add(std::vector<double>{a, b, rng.uniform(), rng.uniform()},
          2.0 * a - b + 0.3 * a * b);
  }
  return d;
}

TEST(ForestIo, DatasetRoundTrip) {
  stats::Rng rng(1);
  const auto original = make_data(50, rng);
  std::stringstream buffer;
  write_dataset(buffer, original);
  const auto loaded = read_dataset(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.feature_count(), original.feature_count());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.y(i), original.y(i));
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(loaded.x(i)[j], original.x(i)[j]);
    }
  }
}

TEST(ForestIo, TreeRoundTripPredictsIdentically) {
  stats::Rng rng(2);
  const auto data = make_data(400, rng);
  TreeConfig cfg;
  cfg.max_features = 4;
  DecisionTreeRegressor tree(cfg);
  tree.fit(data, rng);
  std::stringstream buffer;
  tree.save(buffer);
  DecisionTreeRegressor loaded;
  loaded.load(buffer);
  EXPECT_EQ(loaded.node_count(), tree.node_count());
  for (std::size_t i = 0; i < 50; ++i) {
    const auto x = data.x(i);
    EXPECT_DOUBLE_EQ(loaded.predict(x), tree.predict(x)) << i;
  }
  EXPECT_EQ(loaded.importance(), tree.importance());
}

TEST(ForestIo, ForestRoundTripPredictsIdentically) {
  stats::Rng rng(3);
  const auto data = make_data(500, rng);
  ForestConfig cfg;
  cfg.n_trees = 20;
  RandomForestRegressor forest(cfg);
  forest.fit(data, rng);
  std::stringstream buffer;
  forest.save(buffer);
  RandomForestRegressor loaded;
  loaded.load(buffer);
  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  for (std::size_t i = 0; i < 50; ++i) {
    const auto x = data.x(i);
    EXPECT_DOUBLE_EQ(loaded.predict(x), forest.predict(x)) << i;
  }
  EXPECT_EQ(loaded.importance(), forest.importance());
}

TEST(ForestIo, IncrementalForestSurvivesRestart) {
  stats::Rng rng(4);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 20;
  cfg.refresh_fraction = 0.5;
  IncrementalForest model(cfg, 7);
  model.partial_fit(make_data(300, rng));

  const std::string path = "/tmp/gsight_irfr_test.txt";
  save_incremental_forest(model, path);
  auto loaded = load_incremental_forest(path);
  std::remove(path.c_str());

  // Identical predictions after reload...
  const auto probe = make_data(30, rng);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.predict(probe.x(i)), model.predict(probe.x(i)));
  }
  EXPECT_EQ(loaded.samples_seen(), model.samples_seen());
  // ...and the restored model keeps LEARNING (buffer intact): after more
  // batches its error on fresh data is reasonable.
  loaded.partial_fit(make_data(300, rng));
  EXPECT_EQ(loaded.samples_seen(), 600u);
  const auto test = make_data(200, rng);
  EXPECT_GT(r2(test.targets(), [&] {
              std::vector<double> p;
              for (std::size_t i = 0; i < test.size(); ++i) {
                p.push_back(loaded.predict(test.x(i)));
              }
              return p;
            }()),
            0.8);
}

TEST(ForestIo, VersionStampCountsUpdateRoundsAndRoundTrips) {
  stats::Rng rng(8);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 10;
  IncrementalForest model(cfg, 11);
  EXPECT_EQ(model.version(), 0u);  // cold model: nothing published yet
  model.partial_fit(make_data(100, rng));
  EXPECT_EQ(model.version(), 1u);
  model.partial_fit(make_data(60, rng));
  model.partial_fit(make_data(60, rng));
  EXPECT_EQ(model.version(), 3u);
  // Empty batches are no-ops and must not mint a new version.
  model.partial_fit(Dataset(4));
  EXPECT_EQ(model.version(), 3u);

  std::stringstream buffer;
  save_incremental_forest(model, buffer);
  const auto loaded = load_incremental_forest(buffer);
  EXPECT_EQ(loaded.version(), 3u);
}

// The mid-stream contract: saving after k update rounds and resuming from
// the file is indistinguishable from never having stopped. This is what
// makes the serving layer's persisted models trustworthy — an operator
// can snapshot, restart, and keep folding observations with bit-identical
// results. Requires the updater RNG stream to survive the round trip.
TEST(ForestIo, MidStreamReloadContinuesBitIdentically) {
  stats::Rng data_rng(9);
  std::vector<Dataset> batches;
  for (int i = 0; i < 6; ++i) batches.push_back(make_data(80, data_rng));

  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 12;
  cfg.refresh_fraction = 0.5;  // make refreshes (and thus RNG draws) matter
  IncrementalForest uninterrupted(cfg, 13);
  IncrementalForest checkpointed(cfg, 13);
  for (int i = 0; i < 3; ++i) {
    uninterrupted.partial_fit(batches[i]);
    checkpointed.partial_fit(batches[i]);
  }
  // Checkpoint after k = 3 rounds, reload, continue on the copy.
  std::stringstream buffer;
  save_incremental_forest(checkpointed, buffer);
  auto resumed = load_incremental_forest(buffer);
  EXPECT_EQ(resumed.version(), 3u);
  for (int i = 3; i < 6; ++i) {
    uninterrupted.partial_fit(batches[i]);
    resumed.partial_fit(batches[i]);
  }
  EXPECT_EQ(resumed.version(), uninterrupted.version());
  EXPECT_EQ(resumed.samples_seen(), uninterrupted.samples_seen());
  const auto probe = make_data(50, data_rng);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    // Exact equality: the resumed model must be bit-identical, not close.
    EXPECT_EQ(resumed.predict(probe.x(i)), uninterrupted.predict(probe.x(i)))
        << "diverged at probe " << i;
  }
}

TEST(ForestIo, RejectsCorruptRngState) {
  stats::Rng rng(10);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 4;
  IncrementalForest model(cfg, 17);
  model.partial_fit(make_data(60, rng));
  std::stringstream buffer;
  save_incremental_forest(model, buffer);
  // Zero out the serialized xoshiro words: a degenerate (stuck) stream
  // that can only come from corruption must be rejected on load.
  std::string text = buffer.str();
  const auto rng_pos = text.find("\nrng ");
  ASSERT_NE(rng_pos, std::string::npos);
  const auto line_end = text.find('\n', rng_pos + 1);
  text.replace(rng_pos, line_end - rng_pos, "\nrng 0 0 0 0 0 0");
  std::stringstream corrupt(text);
  EXPECT_THROW(load_incremental_forest(corrupt), std::runtime_error);
}

// partial_fit appends to the restored buffer, so a buffer whose width
// differs from the forest's feature count must not load.
TEST(ForestIo, RejectsBufferWidthMismatch) {
  stats::Rng rng(14);
  IncrementalForestConfig cfg;
  cfg.forest.n_trees = 4;
  IncrementalForest model(cfg, 19);
  model.partial_fit(make_data(60, rng));
  std::stringstream buffer;
  save_incremental_forest(model, buffer);
  const std::string text = buffer.str();
  const auto data_pos = text.find("\ndataset ");
  ASSERT_NE(data_pos, std::string::npos);
  for (const char* body : {"\ndataset 0 3\n", "\ndataset 0 5\n",
                           "\ndataset 1 5\n1 0 0 0 0 0\n"}) {
    SCOPED_TRACE(body);
    std::stringstream corrupt(text.substr(0, data_pos) + body);
    EXPECT_THROW(load_incremental_forest(corrupt), std::runtime_error);
  }
  // The same text with the matching width still loads.
  std::stringstream good(text.substr(0, data_pos) + "\ndataset 0 4\n");
  EXPECT_EQ(load_incremental_forest(good).samples_seen(), 0u);
}

TEST(ForestIo, RejectsCorruptInput) {
  std::stringstream garbage("this is not a forest");
  RandomForestRegressor forest;
  EXPECT_THROW(forest.load(garbage), std::runtime_error);
  std::stringstream garbage2("dataset nope");
  EXPECT_THROW(read_dataset(garbage2), std::runtime_error);
  EXPECT_THROW(load_incremental_forest("/tmp/missing_gsight_model.txt"),
               std::runtime_error);
}

// Header layout (RandomForestRegressor::save):
//   forest <tree_count> <feature_count> <n_trees> <bootstrap_fraction>
//          <max_depth> <min_samples_split> <min_samples_leaf>
//          <max_features> <split_mode>
TEST(ForestIo, RejectsHostileHeaders) {
  const auto expect_rejects = [](const std::string& header) {
    std::stringstream in(header);
    RandomForestRegressor forest;
    EXPECT_THROW(forest.load(in), std::runtime_error) << header;
  };
  // Implausible tree count must fail before any multi-GB allocation.
  expect_rejects("forest 99999999999 4 20 0.8 10 2 1 4 0\n");
  expect_rejects("forest 20 4 99999999999 0.8 10 2 1 4 0\n");
  // Implausible feature count.
  expect_rejects("forest 20 99999999999 20 0.8 10 2 1 4 0\n");
  // split_mode outside the enum range would be UB after static_cast.
  expect_rejects("forest 2 4 2 0.8 10 2 1 4 7\n");
  expect_rejects("forest 2 4 2 0.8 10 2 1 4 -1\n");
  // bootstrap_fraction must be finite and in (0, 1].
  expect_rejects("forest 2 4 2 nan 10 2 1 4 0\n");
  expect_rejects("forest 2 4 2 inf 10 2 1 4 0\n");
  expect_rejects("forest 2 4 2 1.5 10 2 1 4 0\n");
  expect_rejects("forest 2 4 2 0.0 10 2 1 4 0\n");
  expect_rejects("forest 2 4 2 -0.5 10 2 1 4 0\n");
  // Degenerate tree configs.
  expect_rejects("forest 2 4 2 0.8 0 2 1 4 0\n");   // max_depth == 0
  expect_rejects("forest 2 4 2 0.8 10 1 1 4 0\n");  // min_samples_split < 2
  expect_rejects("forest 2 4 2 0.8 10 2 0 4 0\n");  // min_samples_leaf == 0
  // Truncated header.
  expect_rejects("forest 2 4\n");
  expect_rejects("");
}

TEST(ForestIo, FailedLoadLeavesForestUsable) {
  stats::Rng rng(5);
  const auto data = make_data(200, rng);
  ForestConfig cfg;
  cfg.n_trees = 5;
  RandomForestRegressor forest(cfg);
  forest.fit(data, rng);
  const double before = forest.predict(data.x(0));

  std::stringstream corrupt("forest 2 4 2 0.8 10 2 1 4 7\n");
  EXPECT_THROW(forest.load(corrupt), std::runtime_error);
  // Validation happens before any state is committed, so the forest
  // still answers with its pre-load model.
  EXPECT_EQ(forest.tree_count(), 5u);
  EXPECT_DOUBLE_EQ(forest.predict(data.x(0)), before);
}

// --- Hostile tree bodies ----------------------------------------------------
// Saved layout (DecisionTreeRegressor::save): "tree <nodes> <features>",
// one "<feature> <threshold> <left> <right> <value>" line per node (root
// first, a leaf's feature is 4294967295), then one importance line.

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + '\n';
  return text;
}

std::vector<std::string> fields(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  for (std::string f; in >> f;) out.push_back(f);
  return out;
}

void set_field(std::string& line, std::size_t i, const std::string& value) {
  auto f = fields(line);
  f.at(i) = value;
  line.clear();
  for (const auto& v : f) line += (line.empty() ? "" : " ") + v;
}

bool is_leaf(const std::string& node_line) {
  return fields(node_line)[0] == "4294967295";
}

using HostileCase = std::pair<std::string, std::vector<std::string>>;

/// Corruptions of the tree body whose header is lines[head]. Its root
/// and node 1 (the root's left child) must be internal nodes.
std::vector<HostileCase> hostile_bodies(const std::vector<std::string>& lines,
                                        std::size_t head) {
  const std::size_t root = head + 1;
  const std::string node_count = fields(lines[head])[1];
  const std::string root_right = fields(lines[root])[3];
  std::vector<HostileCase> cases;
  const auto add = [&](const char* name, auto edit) {
    auto copy = lines;
    edit(copy);
    cases.emplace_back(name, std::move(copy));
  };
  add("truncated body", [&](auto& l) { l.resize(root + 2); });
  add("child past node count",
      [&](auto& l) { set_field(l[root], 3, node_count); });
  add("self child", [&](auto& l) { set_field(l[root], 2, "0"); });
  add("back-edge child", [&](auto& l) { set_field(l[root + 1], 3, "0"); });
  add("shared child",
      [&](auto& l) { set_field(l[root + 1], 2, root_right); });
  add("orphaned subtree",
      [&](auto& l) { set_field(l[root + 1], 0, "4294967295"); });
  add("feature out of range", [&](auto& l) {
    set_field(l[root], 0, fields(l[head])[2]);
  });
  add("absurd node count",
      [&](auto& l) { set_field(l[head], 1, "99999999999"); });
  return cases;
}

TEST(ForestIo, RejectsMalformedTreeBodiesWithoutMutating) {
  stats::Rng rng(12);
  const auto data = make_data(200, rng);
  ForestConfig cfg;
  cfg.n_trees = 5;
  RandomForestRegressor forest(cfg);
  forest.fit(data, rng);
  std::ostringstream saved;
  forest.save(saved);
  const auto lines = split_lines(saved.str());

  // Corrupt the third tree, so two good trees precede the bad one.
  std::size_t head = 0;
  for (std::size_t seen = 0; head < lines.size(); ++head) {
    if (lines[head].rfind("tree ", 0) == 0 && seen++ == 2) break;
  }
  ASSERT_LT(head + 2, lines.size());
  ASSERT_FALSE(is_leaf(lines[head + 1]));
  ASSERT_FALSE(is_leaf(lines[head + 2]));
  auto cases = hostile_bodies(lines, head);
  {
    // A well-formed tree of the wrong width for the forest header.
    auto copy = lines;
    set_field(copy[head], 2, "3");
    cases.emplace_back("importance length mismatch", std::move(copy));
  }

  const double before = forest.predict(data.x(0));
  for (const auto& [name, body] : cases) {
    SCOPED_TRACE(name);
    std::istringstream in(join_lines(body));
    EXPECT_THROW(forest.load(in), std::runtime_error);
    EXPECT_EQ(forest.tree_count(), 5u);
    EXPECT_EQ(forest.predict(data.x(0)), before);
    std::ostringstream after;
    forest.save(after);
    EXPECT_EQ(after.str(), saved.str());
  }
  // The uncorrupted text still loads.
  std::istringstream good(saved.str());
  RandomForestRegressor reloaded;
  reloaded.load(good);
  EXPECT_EQ(reloaded.predict(data.x(0)), before);
}

TEST(ForestIo, TreeLoadRejectsMalformedBodiesWithoutMutating) {
  stats::Rng rng(13);
  const auto data = make_data(200, rng);
  TreeConfig cfg;
  cfg.max_features = 4;
  DecisionTreeRegressor tree(cfg);
  tree.fit(data, rng);
  std::ostringstream saved;
  tree.save(saved);
  const auto lines = split_lines(saved.str());
  ASSERT_FALSE(is_leaf(lines[1]));
  ASSERT_FALSE(is_leaf(lines[2]));

  const std::size_t nodes = tree.node_count();
  const double before = tree.predict(data.x(0));
  for (const auto& [name, body] : hostile_bodies(lines, 0)) {
    SCOPED_TRACE(name);
    std::istringstream in(join_lines(body));
    EXPECT_THROW(tree.load(in), std::runtime_error);
    EXPECT_EQ(tree.node_count(), nodes);
    EXPECT_EQ(tree.predict(data.x(0)), before);
    std::ostringstream after;
    tree.save(after);
    EXPECT_EQ(after.str(), saved.str());
  }
}

TEST(ForestIo, LoadPreservesRuntimeThreadKnob) {
  stats::Rng rng(6);
  const auto data = make_data(150, rng);
  ForestConfig save_cfg;
  save_cfg.n_trees = 4;
  RandomForestRegressor source(save_cfg);
  source.fit(data, rng);
  std::stringstream buffer;
  source.save(buffer);

  ForestConfig load_cfg;
  load_cfg.threads = 3;  // runtime knob: must survive load
  RandomForestRegressor loaded(load_cfg);
  loaded.load(buffer);
  EXPECT_EQ(loaded.config().threads, 3u);
  EXPECT_EQ(loaded.tree_count(), 4u);
}

}  // namespace
}  // namespace gsight::ml
