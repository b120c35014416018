// Runtime contracts — lightweight, compile-time selectable assertions for
// simulation invariants. Unlike <cassert>, contracts (a) survive NDEBUG
// builds unless explicitly compiled out, (b) report through a swappable
// handler so tests can observe violations without death tests, and (c)
// distinguish cheap precondition checks (GSIGHT_ASSERT) from heavier
// structural invariants (GSIGHT_INVARIANT) that can be compiled out
// independently.
//
// Levels (set GSIGHT_CONTRACT_LEVEL, normally via the CMake cache variable
// of the same name):
//   0 — all contracts compiled out (shipping / benchmark builds)
//   1 — GSIGHT_ASSERT only (cheap pre/postconditions)
//   2 — GSIGHT_ASSERT + GSIGHT_INVARIANT (default; full checking)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#ifndef GSIGHT_CONTRACT_LEVEL
#define GSIGHT_CONTRACT_LEVEL 2
#endif

namespace gsight::core {

/// Thrown by `throwing_contract_handler` — the handler tests install to
/// observe violations as exceptions instead of process aborts.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// kind is "assertion" or "invariant"; msg may be empty.
using ContractHandler = void (*)(const char* kind, const char* expr,
                                 const char* file, int line, const char* msg);

namespace detail {

inline std::string format_violation(const char* kind, const char* expr,
                                    const char* file, int line,
                                    const char* msg) {
  std::string out = std::string(file) + ":" + std::to_string(line) +
                    ": contract " + kind + " failed: " + expr;
  if (msg != nullptr && msg[0] != '\0') {
    out += " (";
    out += msg;
    out += ")";
  }
  return out;
}

[[noreturn]] inline void aborting_contract_handler(const char* kind,
                                                   const char* expr,
                                                   const char* file, int line,
                                                   const char* msg) {
  std::fputs(format_violation(kind, expr, file, line, msg).c_str(), stderr);
  std::fputc('\n', stderr);
  std::abort();
}

inline ContractHandler& handler_slot() {
  static ContractHandler handler = &aborting_contract_handler;
  return handler;
}

[[noreturn]] inline void contract_failed(const char* kind, const char* expr,
                                         const char* file, int line,
                                         const char* msg) {
  handler_slot()(kind, expr, file, line, msg);
  // A custom handler must not return normally (it should throw or abort);
  // guarantee [[noreturn]] regardless.
  std::abort();
}

}  // namespace detail

/// Install a new violation handler; returns the previous one. The handler
/// must not return normally — throw (tests) or abort (production).
inline ContractHandler set_contract_handler(ContractHandler handler) {
  ContractHandler previous = detail::handler_slot();
  detail::handler_slot() = handler;
  return previous;
}

/// Handler that throws ContractViolation — install in tests to assert that
/// a contract fires (EXPECT_THROW) without killing the process.
[[noreturn]] inline void throwing_contract_handler(const char* kind,
                                                   const char* expr,
                                                   const char* file, int line,
                                                   const char* msg) {
  throw ContractViolation(
      detail::format_violation(kind, expr, file, line, msg));
}

/// RAII: installs `handler` (default: throwing) for the enclosing scope.
class ScopedContractHandler {
 public:
  explicit ScopedContractHandler(
      ContractHandler handler = &throwing_contract_handler)
      : previous_(set_contract_handler(handler)) {}
  ~ScopedContractHandler() { set_contract_handler(previous_); }
  ScopedContractHandler(const ScopedContractHandler&) = delete;
  ScopedContractHandler& operator=(const ScopedContractHandler&) = delete;

 private:
  ContractHandler previous_;
};

}  // namespace gsight::core

// Message argument is optional: GSIGHT_ASSERT(cond) or
// GSIGHT_ASSERT(cond, "context"). Messages are only materialised on the
// failure path. A compiled-out contract still names `cond`, inside
// sizeof: that emits no code and evaluates nothing, but a variable only a
// contract reads is not "unused", so lower levels build warning-free.
#if GSIGHT_CONTRACT_LEVEL >= 1
#define GSIGHT_ASSERT(cond, ...)                                       \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::gsight::core::detail::contract_failed(                         \
          "assertion", #cond, __FILE__, __LINE__,                      \
          ::std::string{__VA_ARGS__}.c_str());                         \
    }                                                                  \
  } while (false)
#else
#define GSIGHT_ASSERT(cond, ...) ((void)sizeof(!(cond)))
#endif

#if GSIGHT_CONTRACT_LEVEL >= 2
#define GSIGHT_INVARIANT(cond, ...)                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::gsight::core::detail::contract_failed(                         \
          "invariant", #cond, __FILE__, __LINE__,                      \
          ::std::string{__VA_ARGS__}.c_str());                         \
    }                                                                  \
  } while (false)
#else
#define GSIGHT_INVARIANT(cond, ...) ((void)sizeof(!(cond)))
#endif

// ---------------------------------------------------------------------------
// Thread-safety annotations (compile-time lock discipline).
//
// Wrappers over Clang's thread-safety attributes: under clang every
// annotation is a real attribute checked by -Wthread-safety (enable the
// build with -DGSIGHT_THREAD_SAFETY=ON; clang-only, a no-op elsewhere),
// under any other compiler they expand to nothing. Two tools consume
// them:
//   * clang -Wthread-safety proves lock/unlock pairing and guarded
//     access along every path (check.sh stage 2c);
//   * tools/gsight_analyze's lock-discipline pass enforces the weaker —
//     but compiler-independent — rule that any class owning a mutex
//     annotates (or explicitly waives) every mutable member.
//
// Conventions (see DESIGN.md §12):
//   * mutex-owning classes use gsight::core::Mutex (core/lock.hpp), the
//     capability-annotated wrapper, never bare std::mutex members;
//   * every member protected by that mutex carries
//     GSIGHT_GUARDED_BY(mutex_) (GSIGHT_PT_GUARDED_BY for the pointee
//     of an owned pointer);
//   * private helpers called with the lock held are GSIGHT_REQUIRES(m);
//     public entry points that take the lock are GSIGHT_EXCLUDES(m);
//   * members that are deliberately unguarded (atomics aside, which are
//     exempt) carry a `// gsight-analyze: allow(unguarded-member)`
//     waiver stating why.

#if defined(__clang__) && !defined(SWIG)
#define GSIGHT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GSIGHT_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Declares a class to *be* a lock (capability); GSIGHT_SCOPED_CAPABILITY
/// marks RAII guards that acquire on construction and release on
/// destruction.
#define GSIGHT_CAPABILITY(x) GSIGHT_THREAD_ANNOTATION(capability(x))
#define GSIGHT_SCOPED_CAPABILITY GSIGHT_THREAD_ANNOTATION(scoped_lockable)

/// Member annotations: the data is protected by the named mutex (the
/// _PT_ form protects what an owned pointer points at).
#define GSIGHT_GUARDED_BY(x) GSIGHT_THREAD_ANNOTATION(guarded_by(x))
#define GSIGHT_PT_GUARDED_BY(x) GSIGHT_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function annotations: caller must hold / must not hold the lock.
#define GSIGHT_REQUIRES(...) \
  GSIGHT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GSIGHT_EXCLUDES(...) \
  GSIGHT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Lock-implementation annotations (used by core::Mutex and its guards).
#define GSIGHT_ACQUIRE(...) \
  GSIGHT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GSIGHT_RELEASE(...) \
  GSIGHT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GSIGHT_TRY_ACQUIRE(...) \
  GSIGHT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define GSIGHT_RETURN_CAPABILITY(x) GSIGHT_THREAD_ANNOTATION(lock_returned(x))

/// Last resort: suppress the analysis for one function (document why).
#define GSIGHT_NO_THREAD_SAFETY_ANALYSIS \
  GSIGHT_THREAD_ANNOTATION(no_thread_safety_analysis)
