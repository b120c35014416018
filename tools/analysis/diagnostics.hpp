// Shared diagnostic plumbing for the gsight_analyze passes: the
// Violation record, the per-line waiver syntax, and the SourceSet (one
// lexed view of every file under a scan root).
//
// Waivers: a raw source line carrying
//     // gsight-analyze: allow(rule-a,rule-b)
// waives exactly those rules on exactly that line. File-wide waivers are
// deliberately not offered — every exception stays visible where it
// happens.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/lexer.hpp"

namespace gsight::analysis {

struct Violation {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// True when `rule` is waived on line `line` (1-based) of `file`.
bool waived(const LexedFile& file, std::size_t line, const std::string& rule);

/// True when `rule` is waived on any raw line in [first, last] (1-based,
/// inclusive) — for findings attached to multi-line constructs.
bool waived_in_range(const LexedFile& file, std::size_t first,
                     std::size_t last, const std::string& rule);

/// Every analysed file of a tree, keyed by repo-relative path with
/// forward slashes ("src/sim/engine.hpp"). std::map so all passes
/// iterate files in one deterministic order.
using SourceSet = std::map<std::string, LexedFile>;

/// Lex `text` into `set` under path `rel` (test corpora use this too).
void add_source(SourceSet* set, const std::string& rel,
                const std::string& text);

/// Print violations in file:line: [rule] message form and a summary
/// line prefixed with `tool`; returns the analyzer exit code (0 clean,
/// 1 violations).
int report(const std::string& tool, const std::vector<Violation>& violations,
           std::size_t files_scanned);

}  // namespace gsight::analysis
