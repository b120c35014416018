#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <cctype>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

namespace gsight::analysis {

namespace {

/// Rules waived on this raw line.
std::set<std::string> allowed_rules(const std::string& raw_line) {
  std::set<std::string> out;
  static const std::regex kAllow(
      R"(gsight-analyze:\s*allow\(([A-Za-z0-9_,\- ]+)\))");
  std::smatch m;
  if (std::regex_search(raw_line, m, kAllow)) {
    std::stringstream ss(m[1].str());
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                 rule.end());
      if (!rule.empty()) out.insert(rule);
    }
  }
  return out;
}

}  // namespace

bool waived(const LexedFile& file, std::size_t line,
            const std::string& rule) {
  if (line == 0 || line > file.raw.size()) return false;
  return allowed_rules(file.raw[line - 1]).count(rule) != 0;
}

bool waived_in_range(const LexedFile& file, std::size_t first,
                     std::size_t last, const std::string& rule) {
  for (std::size_t l = first; l <= last && l <= file.raw.size(); ++l) {
    if (waived(file, l, rule)) return true;
  }
  return false;
}

void add_source(SourceSet* set, const std::string& rel,
                const std::string& text) {
  (*set)[rel] = lex(text);
}

int report(const std::string& tool, const std::vector<Violation>& violations,
           std::size_t files_scanned) {
  for (const auto& v : violations) {
    std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  std::cout << tool << ": " << files_scanned << " files, "
            << violations.size() << " violation"
            << (violations.size() == 1 ? "" : "s") << "\n";
  return violations.empty() ? 0 : 1;
}

}  // namespace gsight::analysis
