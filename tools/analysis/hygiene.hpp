// Hygiene pass: repo conventions that keep runs replayable and headers
// sane. Unlike the other passes it scans src/, tests/ and bench/, and
// each rule carries its own path scope. The rules are line-oriented
// regexes over the lexer's `code` view (comments and literals blanked),
// because every rule below is a repo convention, not a C++ legality
// question, and conventions are exactly what survives a cheap lexical
// check.
//
// Rules
//   banned-random   rand()/srand()/std::mt19937/std::random_device/
//                   drand48 anywhere: all randomness must flow through
//                   stats::Rng, which is bit-stable across standard
//                   libraries. (stats/rng.* itself is exempt.)
//   wall-clock      time(), gettimeofday(), clock_gettime(),
//                   std::chrono::{system,steady,high_resolution}_clock,
//                   localtime/gmtime in src/ and in the deterministic
//                   test suites (tests/sim, tests/serve, tests/core) —
//                   simulation code must take time from
//                   sim::Engine::now(), and deterministic tests must
//                   drive serve code through ManualClock. (bench/ and
//                   the remaining test dirs may measure real time.)
//   ptr-key-container  unordered_map/unordered_set keyed by a pointer
//                   type in src/sim — iteration order follows the
//                   allocator, which silently breaks replay.
//   simtime-eq      ==/!= on a variable declared SimTime in the same
//                   file — floating-point simulation clocks must be
//                   compared with tolerances or orderings.
//   pragma-once     every header under the scan roots must contain
//                   #pragma once.
//
// Waive one rule on one line with
//     // gsight-analyze: allow(rule)
#pragma once

#include <vector>

#include "analysis/diagnostics.hpp"

namespace gsight::analysis {

/// Run the pass over every file of `files`, appending violations. Each
/// rule decides from the repo-relative path whether it applies.
void check_hygiene(const SourceSet& files, std::vector<Violation>* out);

/// Seeded-violation corpus; returns the number of failing cases.
int hygiene_self_test();

}  // namespace gsight::analysis
