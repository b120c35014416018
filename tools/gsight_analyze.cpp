// gsight_analyze — static analysis for the Gsight tree.
//
// Five passes over lexed views of the tree (tools/analysis/). The first
// four see src/ only; hygiene also scans tests/ and bench/, with per-rule
// path scopes:
//
//   layering         include-graph DAG enforcement (layer-back-edge,
//                    layer-lateral, layer-cycle)
//   determinism      unordered-container iteration feeding output sinks
//                    (unordered-iteration)
//   lock-discipline  mutex-owning classes with unannotated mutable
//                    members (unguarded-member)
//   hot-alloc        new / make_shared in files marked
//                    `// gsight-analyze: hot-path` (alloc-in-hot-path)
//   hygiene          line rules: banned-random, wall-clock,
//                    ptr-key-container, simtime-eq, pragma-once
//
// Usage:
//   gsight_analyze [ROOT]                  analyse ROOT (default ".")
//   gsight_analyze --dump-graph FILE ROOT  also write the include graph
//                                          (JSON, gsight-include-graph/v1)
//   gsight_analyze --self-test             run every pass's seeded corpus
//   gsight_analyze --self-test=PASS        one corpus: layering,
//                                          determinism, lock-discipline,
//                                          hot-alloc or hygiene
//
// Exit codes: 0 clean, 1 violations (or self-test failures), 2 usage or
// I/O error (including a missing src/, tests/ or bench/ under ROOT).
// Waivers: // gsight-analyze: allow(rule) on the finding line.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/hot_alloc.hpp"
#include "analysis/hygiene.hpp"
#include "analysis/include_graph.hpp"
#include "analysis/lock_discipline.hpp"

namespace fs = std::filesystem;
using namespace gsight::analysis;

namespace {

bool analyzable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

/// Load every source file under root/top into `set`, keyed by
/// repo-relative forward-slash paths. Returns false on I/O failure.
bool load_tree(const fs::path& root, const std::string& top, SourceSet* set) {
  const fs::path dir = root / top;
  if (!fs::exists(dir)) {
    std::cerr << "gsight_analyze: missing scan root " << dir << "\n";
    return false;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && analyzable(entry.path())) {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::cerr << "gsight_analyze: cannot read " << p << "\n";
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::string rel =
        fs::relative(p, root).generic_string();  // "src/…" with fwd slashes
    add_source(set, rel, text.str());
  }
  return true;
}

int run_self_tests(const std::string& which) {
  struct Pass {
    const char* name;
    int (*self_test)();
  };
  static const Pass kPasses[] = {
      {"layering", &include_graph_self_test},
      {"determinism", &determinism_self_test},
      {"lock-discipline", &lock_discipline_self_test},
      {"hot-alloc", &hot_alloc_self_test},
      {"hygiene", &hygiene_self_test},
  };
  int failures = 0;
  bool known = which.empty();
  for (const auto& pass : kPasses) {
    if (!which.empty() && which != pass.name) continue;
    known = true;
    failures += pass.self_test();
  }
  if (!known) {
    std::cerr << "gsight_analyze: unknown pass '" << which
              << "' (layering, determinism, lock-discipline, hot-alloc, "
                 "hygiene)\n";
    return 2;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dump_path;
  std::string root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return run_self_tests("");
    if (arg.rfind("--self-test=", 0) == 0) {
      return run_self_tests(arg.substr(12));
    }
    if (arg == "--dump-graph") {
      if (i + 1 >= argc) {
        std::cerr << "gsight_analyze: --dump-graph needs a file argument\n";
        return 2;
      }
      dump_path = argv[++i];
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: gsight_analyze [--self-test[=PASS]] "
                   "[--dump-graph FILE] [ROOT]\n";
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "gsight_analyze: unknown option " << arg << "\n";
      return 2;
    }
    root = arg;
  }

  SourceSet files;   // src/: every pass
  SourceSet others;  // tests/ and bench/: hygiene only
  if (!load_tree(root, "src", &files) || !load_tree(root, "tests", &others) ||
      !load_tree(root, "bench", &others)) {
    return 2;
  }

  std::vector<Violation> violations;
  const IncludeGraph graph = build_include_graph(files);
  check_layering(graph, files, &violations);
  check_determinism(files, &violations);
  check_lock_discipline(files, &violations);
  check_hot_alloc(files, &violations);
  check_hygiene(files, &violations);
  check_hygiene(others, &violations);

  if (!dump_path.empty()) {
    std::ofstream out(dump_path, std::ios::binary);
    if (!out) {
      std::cerr << "gsight_analyze: cannot write " << dump_path << "\n";
      return 2;
    }
    out << dump_graph_json(graph, files);
  }

  return report("gsight_analyze", violations, files.size() + others.size());
}
