// gsight-analyze: hot-path
#include "sim/request.hpp"

#include "core/contracts.hpp"
#include "obs/json.hpp"

namespace gsight::sim {

RequestRef::RequestRef(RequestContext* ctx) : ctx_(ctx) {
  if (ctx_ != nullptr) ctx_->add_ref();
}

RequestRef::RequestRef(const RequestRef& other) : ctx_(other.ctx_) {
  if (ctx_ != nullptr) ctx_->add_ref();
}

RequestRef::RequestRef(RequestRef&& other) noexcept : ctx_(other.ctx_) {
  other.ctx_ = nullptr;
}

RequestRef& RequestRef::operator=(const RequestRef& other) {
  if (this == &other) return *this;
  RequestContext* old = ctx_;
  ctx_ = other.ctx_;
  if (ctx_ != nullptr) ctx_->add_ref();
  if (old != nullptr) old->release_ref();
  return *this;
}

RequestRef& RequestRef::operator=(RequestRef&& other) noexcept {
  if (this == &other) return *this;
  RequestContext* old = ctx_;
  ctx_ = other.ctx_;
  other.ctx_ = nullptr;
  if (old != nullptr) old->release_ref();
  return *this;
}

RequestRef::~RequestRef() {
  if (ctx_ != nullptr) ctx_->release_ref();
}

void RequestContext::release_ref() {
  GSIGHT_ASSERT(refs_ > 0, "RequestContext over-released");
  if (--refs_ == 0) pool_->recycle(this);
}

void RequestContext::reset(const wl::App* app, std::size_t app_index,
                           Engine* engine, Gateway* gateway, Router* router,
                           RequestSink* sink, RequestKind kind,
                           DoneRequest done_request, DoneJob done_job,
                           obs::Tracer* tracer, std::uint64_t request_id) {
  app_ = app;
  app_index_ = app_index;
  engine_ = engine;
  gateway_ = gateway;
  router_ = router;
  sink_ = sink;
  kind_ = kind;
  done_request_ = std::move(done_request);
  done_job_ = std::move(done_job);
  tracer_ = tracer;
  request_id_ = request_id;
  start_ = 0.0;
  nodes_.assign(app->function_count(), NodeState{});
  finished_ = false;
  cancelled_ = false;
  clones_dispatched_ = 0;
  clones_cancelled_ = 0;
}

void RequestContext::launch() {
  start_ = engine_->now();
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->async_begin(start_, "request", "request", request_id_,
                         {{"app", app_->name}});
  }
  invoke(app_->graph.root(), std::nullopt);
}

void RequestContext::invoke(std::size_t node,
                            std::optional<std::size_t> nested_parent) {
  GSIGHT_ASSERT(node < nodes_.size(), "invoked unknown call-graph node");
  NodeState& state = nodes_[node];
  GSIGHT_ASSERT(!state.invoked, "tree-structured call graphs only");
  state.invoked = true;
  state.parent = nested_parent;

  // Cloning fan-out (jobs are never cloned): each clone is a separate
  // gateway forward — replication amplifies gateway load too, which is
  // part of what the clone-bench measures.
  const CloneConfig& cc = gateway_->clone_config();
  const std::size_t d =
      (kind_ == RequestKind::kRequest && cc.factor > 1)
          ? std::min<std::size_t>(cc.factor, kMaxCloneFactor)
          : 1;
  state.clones_expected = static_cast<std::uint8_t>(d);
  if (d > 1 && cc.policy == CloneConfig::Policy::kSynchronized) {
    state.clone_jitter = router_->clone_jitter(app_index_, node);
  }
  for (std::size_t c = 0; c < d; ++c) {
    auto deliver = [self = RequestRef(this), node, c,
                    forwarded = engine_->now()] {
      self->deliver_clone(node, c, forwarded);
    };
    static_assert(Gateway::Deliver::stores_inline<decltype(deliver)>);
    gateway_->forward(std::move(deliver));
  }
}

void RequestContext::deliver_clone(std::size_t node, std::size_t c,
                                   SimTime forwarded) {
  NodeState& state = nodes_[node];
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  if (tracing) {
    // The gateway leg of this node: enqueue at the shared gateway until
    // delivery to a backend replica.
    tracer_->complete(forwarded, engine_->now() - forwarded, "request.gateway",
                      "request", obs::Lanes::kRequests, request_id_,
                      {{"fn", obs::json_number(static_cast<double>(node))}});
  }
  // A sibling already won, or the whole request was retracted, while this
  // clone sat in the gateway queue: drop it (the ref dies with us).
  if (cancelled_ || state.clone_won) return;
  Instance* instance;
  if (state.clones_expected <= 1) {
    instance = router_->route(app_index_, node);
  } else {
    // Distinct-server constraint: exclude every server a sibling clone
    // already landed on.
    const Server* exclude[kMaxCloneFactor];
    std::size_t n = 0;
    for (std::size_t i = 0; i < state.clones_expected; ++i) {
      if (state.clones[i].instance != nullptr) {
        exclude[n++] = &state.clones[i].instance->server();
      }
    }
    instance = router_->route_clone(app_index_, node, exclude, n);
  }
  if (instance == nullptr) {
    if (state.clones_expected > 1) {
      // This clone is surplus (all replica servers taken by siblings or
      // draining). The request only fails when every clone is unroutable.
      ++state.clones_unroutable;
      if (state.clones_unroutable < state.clones_expected) return;
    }
    if (tracing) {
      tracer_->instant(engine_->now(), "request.drop", "request",
                       obs::Lanes::kRequests, request_id_);
    }
    finish(false);
    return;
  }
  if (tracing) {
    tracer_->instant(
        engine_->now(), "request.dispatch", "request", obs::Lanes::kRequests,
        request_id_,
        {{"fn", obs::json_number(static_cast<double>(node))},
         {"instance", obs::json_number(static_cast<double>(instance->id()))},
         {"server",
          obs::json_number(static_cast<double>(instance->server().id()))}});
  }
  state.clones[c].instance = instance;
  if (state.clones_expected <= 1) {
    auto done = [self = RequestRef(this), node](const InvocationResult& r) {
      self->nodes_[node].clones[0].ticket = 0;
      self->on_exec_done(node, r);
    };
    static_assert(Instance::DoneFn::stores_inline<decltype(done)>);
    state.clones[c].ticket = instance->submit(std::move(done));
  } else {
    ++clones_dispatched_;
    auto done = [self = RequestRef(this), node,
                 c](const InvocationResult& r) {
      self->on_clone_done(node, c, r);
    };
    static_assert(Instance::DoneFn::stores_inline<decltype(done)>);
    state.clones[c].ticket =
        instance->submit(std::move(done), state.clone_jitter);
  }
}

void RequestContext::on_clone_done(std::size_t node, std::size_t c,
                                   const InvocationResult& result) {
  NodeState& state = nodes_[node];
  state.clones[c].ticket = 0;
  if (state.clone_won) return;  // siblings are cancelled, but stay safe
  state.clone_won = true;
  // Cancel-on-first-complete: retract every sibling still queued or
  // running; their DoneFns are destroyed without firing, releasing the
  // RequestRefs they captured.
  for (std::size_t i = 0; i < state.clones_expected; ++i) {
    if (i == c) continue;
    CloneSlot& slot = state.clones[i];
    if (slot.ticket != 0 && slot.instance != nullptr) {
      if (slot.instance->cancel(slot.ticket)) ++clones_cancelled_;
      slot.ticket = 0;
    }
  }
  on_exec_done(node, result);
}

bool RequestContext::cancel() {
  if (finished_) return false;
  finished_ = true;
  cancelled_ = true;
  for (auto& state : nodes_) {
    for (std::size_t i = 0; i < state.clones_expected; ++i) {
      CloneSlot& slot = state.clones[i];
      if (slot.ticket != 0 && slot.instance != nullptr) {
        if (slot.instance->cancel(slot.ticket)) ++clones_cancelled_;
        slot.ticket = 0;
      }
    }
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->async_end(engine_->now(), "request", "request", request_id_,
                       {{"ok", "cancelled"}});
  }
  if (clones_dispatched_ > 0) {
    sink_->on_clone_accounting(app_index_, clones_dispatched_,
                               clones_cancelled_);
  }
  sink_->on_request_cancelled(app_index_, kind_);
  return true;
}

void RequestContext::on_exec_done(std::size_t node,
                                  const InvocationResult& result) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    const SimTime now = engine_->now();
    if (result.cold) {
      // The cold start is modelled as a leading phase of the execution;
      // mark its onset so traces show where startup cost lands.
      tracer_->instant(now - result.exec_s, "request.cold_start", "request",
                       obs::Lanes::kRequests, request_id_,
                       {{"fn", obs::json_number(static_cast<double>(node))}});
    }
    tracer_->complete(
        now - result.local_latency_s, result.local_latency_s, "request.exec",
        "request", obs::Lanes::kRequests, request_id_,
        {{"fn", obs::json_number(static_cast<double>(node))},
         {"queue_wait_s", obs::json_number(result.queue_wait_s)},
         {"exec_s", obs::json_number(result.exec_s)},
         {"ipc", obs::json_number(result.mean_ipc)},
         {"cold", result.cold ? "1" : "0"}});
  }
  sink_->on_fn_done(app_index_, node, result);
  NodeState& state = nodes_[node];
  state.exec_done = true;
  // Fan out to children now that this function returned its response.
  for (const auto& edge : app_->graph.children(node)) {
    if (edge.kind == wl::EdgeKind::kNested) ++state.pending_nested;
  }
  for (const auto& edge : app_->graph.children(node)) {
    invoke(edge.callee, edge.kind == wl::EdgeKind::kNested
                            ? std::optional<std::size_t>(node)
                            : std::nullopt);
  }
  if (state.pending_nested == 0) complete_node(node);
}

void RequestContext::complete_node(std::size_t node) {
  NodeState& state = nodes_[node];
  if (state.completed) return;
  state.completed = true;
  if (node == app_->graph.root()) {
    finish(true);
    return;
  }
  if (state.parent.has_value()) {
    NodeState& parent = nodes_[*state.parent];
    GSIGHT_ASSERT(parent.pending_nested > 0,
                  "nested completion without a pending child");
    if (--parent.pending_nested == 0 && parent.exec_done) {
      complete_node(*state.parent);
    }
  }
  // Async completions have no parent to notify.
}

void RequestContext::finish(bool ok) {
  if (finished_) return;
  finished_ = true;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->async_end(engine_->now(), "request", "request", request_id_,
                       {{"ok", ok ? "1" : "0"}});
  }
  const double elapsed = engine_->now() - start_;
  // Sink first (stats recorded), then the user callback — preserving the
  // "after stats are recorded" ordering issue_request documents.
  if (clones_dispatched_ > 0) {
    sink_->on_clone_accounting(app_index_, clones_dispatched_,
                               clones_cancelled_);
  }
  sink_->on_request_done(app_index_, kind_, elapsed, ok);
  if (kind_ == RequestKind::kRequest) {
    if (done_request_) done_request_(elapsed, ok);
  } else {
    if (done_job_) done_job_(elapsed);
  }
}

RequestRef RequestPool::acquire(const wl::App* app, std::size_t app_index,
                                Engine* engine, Gateway* gateway,
                                Router* router, RequestSink* sink,
                                RequestKind kind,
                                RequestContext::DoneRequest done_request,
                                RequestContext::DoneJob done_job,
                                obs::Tracer* tracer,
                                std::uint64_t request_id) {
  RequestContext* ctx = nullptr;
  if (!free_.empty()) {
    ctx = free_.back();
    free_.pop_back();
  } else {
    // The one legitimate allocation on the request path: growing the pool
    // to a new high-water mark of concurrently in-flight requests.
    owned_.emplace_back(new RequestContext(this));  // gsight-analyze: allow(hot-alloc)
    ctx = owned_.back().get();
  }
  ctx->reset(app, app_index, engine, gateway, router, sink, kind,
             std::move(done_request), std::move(done_job), tracer, request_id);
  return RequestRef(ctx);
}

void RequestPool::recycle(RequestContext* ctx) {
  // Drop captured user-callback state eagerly (same release point the
  // shared_ptr design had); the context's buffers keep their capacity.
  ctx->done_request_ = nullptr;
  ctx->done_job_ = nullptr;
  free_.push_back(ctx);
}

}  // namespace gsight::sim
