#include "analysis/hygiene.hpp"

#include <algorithm>
#include <iostream>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace gsight::analysis {

namespace {

struct Rule {
  std::string name;
  std::regex pattern;
  std::string message;
  /// Return true when the rule applies to this file path (relative).
  bool (*applies)(const std::string& rel);
};

bool in_src(const std::string& rel) { return rel.rfind("src/", 0) == 0; }
bool in_sim(const std::string& rel) { return rel.rfind("src/sim/", 0) == 0; }
bool not_rng(const std::string& rel) {
  return rel != "src/stats/rng.hpp" && rel != "src/stats/rng.cpp";
}
/// Wall-clock discipline: src/ plus the test suites whose subjects are
/// deterministic by contract (twin-run campaigns, ManualClock serving).
bool deterministic_scope(const std::string& rel) {
  return in_src(rel) || rel.rfind("tests/sim/", 0) == 0 ||
         rel.rfind("tests/serve/", 0) == 0 || rel.rfind("tests/core/", 0) == 0;
}

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"banned-random",
       std::regex(R"((^|[^\w:])(rand|srand|rand_r|drand48|lrand48)\s*\()"),
       "C random APIs are not replay-deterministic; draw from stats::Rng",
       +[](const std::string& rel) { return not_rng(rel); }},
      {"banned-random",
       std::regex(R"(std\s*::\s*(mt19937(_64)?|minstd_rand0?|random_device|)"
                  R"(default_random_engine|uniform_int_distribution|)"
                  R"(uniform_real_distribution|normal_distribution|)"
                  R"(bernoulli_distribution|poisson_distribution))"),
       "std <random> is not bit-stable across standard libraries; use "
       "stats::Rng",
       +[](const std::string& rel) { return not_rng(rel); }},
      {"wall-clock",
       std::regex(R"((^|[^\w:.])(time|gettimeofday|clock_gettime|clock|)"
                  R"(localtime|gmtime|mktime|strftime)\s*\()"),
       "wall-clock calls in deterministic code; take time from "
       "Engine::now() or a ManualClock",
       &deterministic_scope},
      {"wall-clock",
       std::regex(R"(std\s*::\s*chrono\s*::\s*(system_clock|steady_clock|)"
                  R"(high_resolution_clock))"),
       "std::chrono clocks in deterministic code; take time from "
       "Engine::now() or a ManualClock",
       &deterministic_scope},
      {"ptr-key-container",
       std::regex(R"(unordered_(map|set)\s*<\s*(const\s+)?[A-Za-z_][\w:]*\s*\*)"),
       "pointer-keyed unordered container iterates in allocator order and "
       "breaks replay; key by a stable id",
       &in_sim},
  };
  return kRules;
}

/// simtime-eq: collect identifiers declared `SimTime name` in this file,
/// then flag ==/!= comparisons that touch one of them.
void check_simtime_eq(const std::string& rel, const LexedFile& file,
                      std::vector<Violation>* out) {
  static const std::regex kDecl(R"(\bSimTime\s+([A-Za-z_]\w*)\s*[;=,){])");
  std::set<std::string> names;
  for (const auto& line : file.code) {
    for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
         it != end; ++it) {
      names.insert((*it)[1].str());
    }
  }
  if (names.empty()) return;
  static const std::regex kCompare(
      R"(([A-Za-z_][\w.\->]*)\s*[=!]=\s*([A-Za-z_][\w.\->]*))");
  for (std::size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (std::sregex_iterator it(line.begin(), line.end(), kCompare), end;
         it != end; ++it) {
      auto last_component = [](std::string s) {
        const auto dot = s.find_last_of(".>");
        return dot == std::string::npos ? s : s.substr(dot + 1);
      };
      // Skip operands that are calls (`x == v.end()`): only *variables*
      // declared SimTime are tracked, and begin()/end()-style members
      // would otherwise collide with SimTime parameters named `end`.
      const std::size_t after =
          static_cast<std::size_t>(it->position(0) + it->length(0));
      const bool rhs_is_call = after < line.size() && line[after] == '(';
      const std::string lhs = last_component((*it)[1].str());
      const std::string rhs = last_component((*it)[2].str());
      if (names.count(lhs) != 0 || (!rhs_is_call && names.count(rhs) != 0)) {
        if (waived(file, i + 1, "simtime-eq")) continue;
        out->push_back({rel, i + 1, "simtime-eq",
                        "exact ==/!= on a SimTime; compare with a tolerance "
                        "or ordering"});
      }
    }
  }
}

void check_pragma_once(const std::string& rel, const LexedFile& file,
                       std::vector<Violation>* out) {
  if (rel.size() < 4 || rel.compare(rel.size() - 4, 4, ".hpp") != 0) return;
  for (std::size_t i = 0; i < file.raw.size(); ++i) {
    if (file.raw[i].find("#pragma once") != std::string::npos) return;
  }
  out->push_back({rel, 1, "pragma-once", "header lacks #pragma once"});
}

}  // namespace

void check_hygiene(const SourceSet& files, std::vector<Violation>* out) {
  for (const auto& [rel, file] : files) {
    for (const auto& rule : rules()) {
      if (!rule.applies(rel)) continue;
      for (std::size_t i = 0; i < file.code.size(); ++i) {
        if (!std::regex_search(file.code[i], rule.pattern)) continue;
        if (waived(file, i + 1, rule.name)) continue;
        out->push_back({rel, i + 1, rule.name, rule.message});
      }
    }
    check_simtime_eq(rel, file, out);
    check_pragma_once(rel, file, out);
  }
}

int hygiene_self_test() {
  struct Case {
    const char* name;
    const char* rel;
    const char* text;
    const char* expect_rule;  // nullptr = expect clean
  };
  const std::vector<Case> cases = {
      {"rand call", "src/foo.cpp", "#include <x>\nint x = rand();\n",
       "banned-random"},
      {"mt19937", "tests/t.cpp", "std::mt19937 gen(42);\n", "banned-random"},
      {"random in comment", "src/foo.cpp", "// uses std::mt19937 internally\n",
       nullptr},
      {"random in string", "src/foo.cpp",
       "const char* s = \"std::mt19937\";\n", nullptr},
      {"rng.hpp exempt", "src/stats/rng.hpp",
       "#pragma once\n// replacement for std::mt19937\nstd::mt19937 g;\n",
       nullptr},
      {"rand-like identifier", "src/foo.cpp", "int strand(int);\nbrand();\n",
       nullptr},
      {"wall clock in src", "src/sim/x.cpp", "auto t = time(nullptr);\n",
       "wall-clock"},
      {"steady_clock in src", "src/sim/x.cpp",
       "auto t = std::chrono::steady_clock::now();\n", "wall-clock"},
      {"steady_clock in bench ok", "bench/b.cpp",
       "auto t = std::chrono::steady_clock::now();\n", nullptr},
      {"steady_clock in tests/sim", "tests/sim/t.cpp",
       "auto t = std::chrono::steady_clock::now();\n", "wall-clock"},
      {"time() in tests/serve", "tests/serve/t.cpp",
       "auto t = time(nullptr);\n", "wall-clock"},
      {"system_clock in tests/core", "tests/core/t.cpp",
       "auto t = std::chrono::system_clock::now();\n", "wall-clock"},
      {"steady_clock in tests/ml ok", "tests/ml/t.cpp",
       "auto t = std::chrono::steady_clock::now();\n", nullptr},
      {"waived wall clock in tests/serve", "tests/serve/t.cpp",
       "auto t = std::chrono::steady_clock::now();"
       "  // gsight-analyze: allow(wall-clock)\n",
       nullptr},
      {"next_time not wall clock", "src/sim/x.cpp",
       "auto t = queue.next_time();\n", nullptr},
      {"ptr-keyed map in sim", "src/sim/x.hpp",
       "#pragma once\nstd::unordered_map<Instance*, int> m_;\n",
       "ptr-key-container"},
      {"ptr-keyed map outside sim ok", "src/ml/x.hpp",
       "#pragma once\nstd::unordered_map<Node*, int> m_;\n", nullptr},
      {"id-keyed map ok", "src/sim/x.hpp",
       "#pragma once\nstd::unordered_map<ExecId, int> m_;\n", nullptr},
      {"simtime equality", "src/sim/x.cpp",
       "SimTime when = 0.0;\nif (when == other) {}\n", "simtime-eq"},
      {"simtime tolerance ok", "src/sim/x.cpp",
       "SimTime when = 0.0;\nif (when <= other) {}\n", nullptr},
      {"allow waives", "src/sim/x.cpp",
       "SimTime when = 0.0;\n"
       "if (when == o) {}  // gsight-analyze: allow(simtime-eq)\n",
       nullptr},
      {"one waiver lists several rules", "src/sim/x.cpp",
       "SimTime when = 0.0;\n"
       "if (when == o) {}  // gsight-analyze: allow(banned-random, "
       "simtime-eq)\n",
       nullptr},
      {"allow is per-rule", "src/sim/x.cpp",
       "SimTime when = 0.0;\n"
       "if (when == o) {}  // gsight-analyze: allow(banned-random)\n",
       "simtime-eq"},
      // The retired linter's prefix, split so that a search of the tree
      // for it finds no live waiver.
      {"retired lint prefix waives nothing", "src/sim/x.cpp",
       "SimTime when = 0.0;\n"
       "if (when == o) {}  // gsight-" "lint: allow(simtime-eq)\n",
       "simtime-eq"},
      {"missing pragma once", "src/sim/x.hpp", "struct A {};\n",
       "pragma-once"},
      {"pragma once present", "src/sim/x.hpp", "#pragma once\nstruct A {};\n",
       nullptr},
      {"raw string literal stays inert", "src/foo.cpp",
       "const char* s = R\"(std::mt19937 time( ))\";\n", nullptr},
  };
  int failures = 0;
  for (const auto& c : cases) {
    SourceSet set;
    add_source(&set, c.rel, c.text);
    std::vector<Violation> vs;
    check_hygiene(set, &vs);
    const bool ok =
        c.expect_rule == nullptr
            ? vs.empty()
            : std::any_of(vs.begin(), vs.end(), [&](const Violation& v) {
                return v.rule == c.expect_rule;
              });
    if (!ok) {
      ++failures;
      std::cout << "hygiene self-test FAIL: " << c.name << " (expected "
                << (c.expect_rule ? c.expect_rule : "clean") << ", got "
                << vs.size() << " violation(s)";
      for (const auto& v : vs) std::cout << " [" << v.rule << "]";
      std::cout << ")\n";
    }
  }
  std::cout << "gsight_analyze --self-test=hygiene: " << cases.size()
            << " cases, " << failures << " failure"
            << (failures == 1 ? "" : "s") << "\n";
  return failures;
}

}  // namespace gsight::analysis
