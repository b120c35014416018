// Shared lexical front end for the gsight_analyze passes. One scan of a
// translation unit yields three synchronized views:
//
//   raw    — the original lines, for reporting and waiver parsing;
//   code   — the lines with comments and string/char literals blanked
//            (the view the line-oriented hygiene rules match against);
//   tokens — a real C++ token stream (identifiers, numbers, literals,
//            multi-character punctuation) with line/column positions,
//            the view the token-aware passes consume.
//
// This is a *lexer*, not a parser: it understands comments, raw strings,
// digit separators and maximal-munch operators, but it does not expand
// macros or resolve names. Every pass built on it is a repo-convention
// check, where lexical fidelity is exactly enough.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gsight::analysis {

enum class TokKind {
  kIdent,   ///< identifiers and keywords (the lexer does not distinguish)
  kNumber,  ///< integer / floating literals, including 1'000 and 0x1p3
  kString,  ///< string literal, text includes the quotes (raw strings too)
  kChar,    ///< character literal, text includes the quotes
  kPunct,   ///< operators and punctuation, longest-match (e.g. "::", "<<=")
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  std::size_t line = 0;  ///< 1-based line of the token's first character
  std::size_t col = 0;   ///< 0-based column of the token's first character
};

/// The three views of one file. Lines in `raw` and `code` are parallel;
/// `code` lines are the same length as their `raw` counterparts with
/// comments and string/char literal contents replaced by spaces.
struct LexedFile {
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<Token> tokens;
};

/// Lex a whole file. Never fails: malformed input (unterminated string,
/// stray bytes) degrades to best-effort tokens rather than an error, so
/// analysis tools can always run on a tree that may not even compile.
LexedFile lex(const std::string& text);

/// Index of the token matching the opener at `open_idx` (whose text must
/// be "(", "[" or "{"), honouring nesting of that same pair. Returns
/// tokens.size() when unmatched.
std::size_t match_delim(const std::vector<Token>& tokens,
                        std::size_t open_idx);

/// Index of the ">" (or ">>") token closing a template-argument list
/// opened by the "<" at `open_idx`. A ">>" closes two levels, which is
/// how `vector<vector<int>>` lexes. Returns tokens.size() when the list
/// never closes before a ";" at nesting depth zero (i.e. `<` was a
/// comparison, not a template opener).
std::size_t match_angle(const std::vector<Token>& tokens,
                        std::size_t open_idx);

}  // namespace gsight::analysis
