// RequestContext — executes one end-to-end request through an App's call
// graph: every function invocation is forwarded through the gateway,
// queued at an instance, executed under interference, and then fans out to
// its children (nested children gate the caller's completion; async
// children do not). End-to-end latency is the root node's completion time,
// so interference anywhere on the nested (critical) path stretches it
// while side-branch interference does not (Observation 2).
//
// Contexts are pooled. A serverless sim issues millions of requests, and
// the original shared_ptr design paid three heap allocations per request
// (the context's control block plus a shared completion callback each for
// stats and the user). RequestContext is now intrusively refcounted and
// recycled through a RequestPool: in steady state issuing a request
// performs no context allocation at all — the pool grows only to the
// high-water mark of concurrently in-flight requests. Stats recording
// moved from capturing lambdas to the RequestSink interface (implemented
// by Platform), so the completion path is a virtual call instead of a
// std::function pair.
//
// Lifetime rules: every callback a context hands to the gateway or an
// instance captures a RequestRef, so the context stays checked out until
// the last pending callback is destroyed (fired, or dropped by
// abort_executions / engine teardown). When the final ref dies the
// context returns to the free list — which is why the pool must outlive
// the engine and gateway (Platform declares it first, destroying it
// last).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/gateway.hpp"
#include "sim/instance.hpp"
#include "workloads/app.hpp"

namespace gsight::sim {

/// Resolves (app, fn) to the instance that should serve the next
/// invocation (round-robin across healthy replicas in the platform).
class Router {
 public:
  virtual ~Router() = default;
  /// May return nullptr when no replica exists; the request then fails.
  virtual Instance* route(std::size_t app, std::size_t fn) = 0;
  /// Clone-aware routing: pick a replica whose server is NOT one of
  /// exclude[0..n) — clones of one request must land on distinct servers
  /// or replication buys nothing. Returns nullptr when every replica's
  /// server is excluded (the extra clone is simply not dispatched). The
  /// default ignores the exclusion so single-replica test routers keep
  /// working.
  virtual Instance* route_clone(std::size_t app, std::size_t fn,
                                const Server* const* exclude, std::size_t n) {
    (void)exclude;
    (void)n;
    return route(app, fn);
  }
  /// One shared duration-jitter draw for a synchronized clone group
  /// (CloneConfig::Policy::kSynchronized). <= 0 means "draw per clone".
  virtual double clone_jitter(std::size_t app, std::size_t fn) {
    (void)app;
    (void)fn;
    return -1.0;
  }
};

/// What a context represents: an LS request (e2e latency) or an SC/BG
/// job run (JCT). Determines which AppStats series the sink records.
enum class RequestKind { kRequest, kJob };

/// Where completed work reports its measurements. Implemented by
/// Platform; replaces the per-request capturing lambdas so launching a
/// request allocates no callback state.
class RequestSink {
 public:
  virtual ~RequestSink() = default;
  /// Root completion: `ok` is false when routing failed mid-graph.
  virtual void on_request_done(std::size_t app, RequestKind kind,
                               double latency_s, bool ok) = 0;
  /// Every finished function invocation of every request.
  virtual void on_fn_done(std::size_t app, std::size_t fn,
                          const InvocationResult& result) = 0;
  /// A tracked request was retracted via RequestContext::cancel() before
  /// completing (cross-shard clone groups). No on_request_done follows.
  virtual void on_request_cancelled(std::size_t app, RequestKind kind) {
    (void)app;
    (void)kind;
  }
  /// Per-request clone accounting, reported at finish/cancel time when
  /// the request dispatched any clones: how many clone invocations were
  /// submitted and how many were retracted by cancel-on-first-complete.
  virtual void on_clone_accounting(std::size_t app, std::uint32_t dispatched,
                                   std::uint32_t cancelled) {
    (void)app;
    (void)dispatched;
    (void)cancelled;
  }
};

class RequestContext;
class RequestPool;

/// Intrusive refcounted handle to a pooled RequestContext. Copyable (the
/// platform's tracked-request table keeps one beside the callbacks'),
/// and nothrow-movable so the gateway/instance callbacks that capture it
/// stay inline (sim::InlineFunction); the context returns to its pool
/// when the last ref dies. Single-threaded by design, like the engine it
/// serves.
class RequestRef {
 public:
  RequestRef() = default;
  explicit RequestRef(RequestContext* ctx);
  RequestRef(const RequestRef& other);
  RequestRef(RequestRef&& other) noexcept;
  RequestRef& operator=(const RequestRef& other);
  RequestRef& operator=(RequestRef&& other) noexcept;
  ~RequestRef();

  RequestContext* operator->() const { return ctx_; }
  RequestContext& operator*() const { return *ctx_; }
  explicit operator bool() const { return ctx_ != nullptr; }

 private:
  RequestContext* ctx_ = nullptr;
};

class RequestContext {
 public:
  /// User callback for issue_request: (e2e latency, ok). Fires after the
  /// sink has recorded the completion.
  using DoneRequest = std::function<void(double e2e_latency_s, bool ok)>;
  /// User callback for submit_job: receives the JCT (even on failure,
  /// matching the original submit_job contract).
  using DoneJob = std::function<void(double jct_s)>;

  /// Kick off the request from its root function. The pool's RequestRef
  /// (plus the refs captured by pending callbacks) keeps the context
  /// checked out until every spawned invocation has finished.
  void launch();

  /// Retract the whole request: every live clone/invocation ticket is
  /// cancelled at its instance, the sink is told via
  /// on_request_cancelled, and neither on_request_done nor the user
  /// callback ever fires. Idempotent; returns false when the request
  /// already finished (or was already cancelled). Used by the sharded
  /// runtime to resolve cross-cell clone groups.
  bool cancel();

  bool finished() const { return finished_; }
  bool cancelled() const { return cancelled_; }

 private:
  friend class RequestPool;
  friend class RequestRef;

  explicit RequestContext(RequestPool* pool) : pool_(pool) {}

  /// Re-initialize a recycled context for its next request. Reuses the
  /// nodes_ buffer capacity across checkouts.
  void reset(const wl::App* app, std::size_t app_index, Engine* engine,
             Gateway* gateway, Router* router, RequestSink* sink,
             RequestKind kind, DoneRequest done_request, DoneJob done_job,
             obs::Tracer* tracer, std::uint64_t request_id);

  void add_ref() { ++refs_; }
  void release_ref();

  /// One dispatched clone of a node's invocation: where it went and the
  /// instance ticket that retracts it. Fixed-size storage inside
  /// NodeState so the cloning fast path allocates nothing.
  struct CloneSlot {
    Instance* instance = nullptr;
    std::uint64_t ticket = 0;  ///< 0 = empty / already resolved
  };

  struct NodeState {
    bool invoked = false;
    bool exec_done = false;
    bool completed = false;
    std::size_t pending_nested = 0;
    std::optional<std::size_t> parent;  ///< nested parent, if any
    // Cloning state. clones_expected is the fan-out d for this node
    // (1 = legacy single dispatch); clone_won latches on the first
    // completion so late siblings and stale deliveries drop.
    CloneSlot clones[kMaxCloneFactor];
    std::uint8_t clones_expected = 0;
    std::uint8_t clones_unroutable = 0;
    bool clone_won = false;
    double clone_jitter = -1.0;  ///< shared draw (synchronized policy)
  };

  void invoke(std::size_t node, std::optional<std::size_t> nested_parent);
  /// Gateway delivery of clone `c` of `node`: route (excluding sibling
  /// servers), submit, record the cancellation ticket.
  void deliver_clone(std::size_t node, std::size_t c, SimTime forwarded);
  /// First clone of `node` to complete: cancel the siblings, then run
  /// the normal completion path.
  void on_clone_done(std::size_t node, std::size_t c,
                     const InvocationResult& result);
  void on_exec_done(std::size_t node, const InvocationResult& result);
  void complete_node(std::size_t node);
  void finish(bool ok);

  RequestPool* pool_;
  std::uint32_t refs_ = 0;
  const wl::App* app_ = nullptr;
  std::size_t app_index_ = 0;
  Engine* engine_ = nullptr;
  Gateway* gateway_ = nullptr;
  Router* router_ = nullptr;
  RequestSink* sink_ = nullptr;
  RequestKind kind_ = RequestKind::kRequest;
  DoneRequest done_request_;
  DoneJob done_job_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t request_id_ = 0;
  SimTime start_ = 0.0;
  std::vector<NodeState> nodes_;
  bool finished_ = false;
  bool cancelled_ = false;
  std::uint32_t clones_dispatched_ = 0;
  std::uint32_t clones_cancelled_ = 0;
};

/// LIFO free-list pool of RequestContexts. LIFO keeps the hottest
/// (cache-resident) context on top; `allocated()` is the high-water mark
/// of concurrent in-flight requests, which the pool ctest uses to prove
/// reuse actually happens.
class RequestPool {
 public:
  RequestPool() = default;
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// Check out a context (recycled if available) initialized for one
  /// request. Exactly one of done_request / done_job is meaningful,
  /// selected by `kind`.
  RequestRef acquire(const wl::App* app, std::size_t app_index, Engine* engine,
                     Gateway* gateway, Router* router, RequestSink* sink,
                     RequestKind kind, RequestContext::DoneRequest done_request,
                     RequestContext::DoneJob done_job, obs::Tracer* tracer,
                     std::uint64_t request_id);

  /// Contexts ever created (pool high-water mark).
  std::size_t allocated() const { return owned_.size(); }
  /// Contexts currently on the free list (== allocated() when idle).
  std::size_t available() const { return free_.size(); }

 private:
  friend class RequestContext;
  void recycle(RequestContext* ctx);

  std::vector<std::unique_ptr<RequestContext>> owned_;
  std::vector<RequestContext*> free_;
};

}  // namespace gsight::sim
