// gsight-analyze: hot-path
#include "sim/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "core/contracts.hpp"
#include "obs/json.hpp"

namespace gsight::sim {

Server::Server(std::size_t id, ServerConfig config, Engine* engine,
               const InterferenceModel* model)
    : id_(id),
      config_(config),
      engine_(engine),
      model_(model),
      resident_mem_(config.mem_gb, ResourceLedger::Policy::kOversubscribe) {
  GSIGHT_ASSERT(engine_ != nullptr && model_ != nullptr);
}

void Server::add_resident(double mem_gb) {
  resident_mem_.acquire(mem_gb);
  ++resident_count_;
}

void Server::remove_resident(double mem_gb) {
  GSIGHT_ASSERT(resident_count_ > 0,
                "remove_resident with no resident instances");
  resident_mem_.release(mem_gb);
  --resident_count_;
}

ExecId Server::begin_execution(const std::vector<wl::Phase>& phases,
                               CompletionFn on_complete, void* owner) {
  GSIGHT_ASSERT(!phases.empty(), "execution needs at least one phase");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Exec& e = slots_[slot];
  // A fresh Exec, except that it keeps the slot's phase buffer.
  std::vector<wl::Phase> buffer = std::move(e.phases);
  e = Exec{};
  e.phases = std::move(buffer);
  e.phases.assign(phases.begin(), phases.end());
  e.id = next_id_++;
  e.remaining = e.phases[0].solo_duration_s;
  e.last_update = engine_->now();
  e.started = engine_->now();
  e.on_complete = std::move(on_complete);
  e.owner = owner;
  const ExecId id = e.id;
  active_.push_back(slot);
  recompute();
  return id;
}

std::size_t Server::find(ExecId id) const {
  const auto it = std::lower_bound(
      active_.begin(), active_.end(), id,
      [this](std::uint32_t slot, ExecId v) { return slots_[slot].id < v; });
  if (it == active_.end() || slots_[*it].id != id) return active_.size();
  return static_cast<std::size_t>(it - active_.begin());
}

void Server::release(std::size_t pos) {
  const std::uint32_t slot = active_[pos];
  // Destroys an unfired completion closure (abort), releasing what it
  // captured; a fired one was already moved out.
  slots_[slot].on_complete = nullptr;
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(pos));
  free_slots_.push_back(slot);
}

bool Server::abort_execution(ExecId id) {
  const std::size_t pos = find(id);
  if (pos == active_.size()) return false;
  if (sink_ != nullptr) {
    sink_->on_exec_aborted(slots_[active_[pos]].owner, engine_->now());
  }
  release(pos);
  recompute();
  return true;
}

std::vector<ExecId> Server::executions_of(const void* owner) const {
  std::vector<ExecId> out;
  for (const std::uint32_t slot : active_) {
    if (slots_[slot].owner == owner) out.push_back(slots_[slot].id);
  }
  return out;
}

const ExecObservation* Server::observation(ExecId id) const {
  const std::size_t pos = find(id);
  return pos == active_.size() ? nullptr : &slots_[active_[pos]].obs;
}

DemandTotals Server::active_demand() const {
  DemandTotals totals;
  for (const std::uint32_t slot : active_) {
    const Exec& e = slots_[slot];
    totals.add(e.phases[e.phase_idx].demand);
  }
  return totals;
}

double Server::cpu_utilization() const {
  double granted = 0.0;
  for (const std::uint32_t slot : active_) {
    const Exec& e = slots_[slot];
    granted += e.phases[e.phase_idx].demand.cores * e.obs.cpu_share;
  }
  return granted / config_.cores;
}

void Server::recompute() {
  const SimTime now = engine_->now();
  // 1. Bank progress under the rates that were in force.
  for (const std::uint32_t slot : active_) {
    Exec& e = slots_[slot];
    const double dt = now - e.last_update;
    GSIGHT_INVARIANT(dt >= 0.0, "execution progressed backwards in time");
    if (dt > 0.0) {
      e.remaining = std::max(0.0, e.remaining - e.rate * dt);
      e.ipc_integral += e.obs.ipc * dt;
      e.busy_integral += dt;
      if (sink_ != nullptr) {
        sink_->on_exec_slice(e.owner, now, dt, e.obs, e.phases[e.phase_idx]);
      }
    }
    e.last_update = now;
  }
  // 2. Re-evaluate the colocation.
  const std::size_t n = active_.size();
  colocation_.clear();
  for (const std::uint32_t slot : active_) {
    const Exec& e = slots_[slot];
    colocation_.push_back(&e.phases[e.phase_idx]);
  }
  observations_.resize(n);
  model_->evaluate(config_, colocation_, observations_);
  // 3. Apply new rates and reschedule completions. Under processor
  // sharing each execution is additionally capped to an equal share of
  // the cores: the interference model splits CPU time proportionally to
  // demand, so the egalitarian discipline is a further fair-share factor
  // on executions demanding more than cores/n.
  const double fair_cores =
      (config_.discipline == ServiceDiscipline::kProcessorSharing && n > 0)
          ? config_.cores / static_cast<double>(n)
          : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    Exec& e = slots_[active_[i]];
    e.obs = observations_[i];
    e.rate = std::max(e.obs.rate, 1e-9);
    if (fair_cores > 0.0) {
      const double want = e.phases[e.phase_idx].demand.cores;
      if (want > fair_cores) e.rate *= fair_cores / want;
      e.rate = std::max(e.rate, 1e-9);
    }
    GSIGHT_INVARIANT(std::isfinite(e.rate) && e.rate > 0.0,
                     "interference model produced a bad progress rate");
    GSIGHT_INVARIANT(e.remaining >= 0.0, "negative remaining work");
    schedule_completion(e);
  }
}

void Server::schedule_completion(Exec& e) {
  ++e.gen;
  const double eta = e.remaining / e.rate;
  const ExecId id = e.id;
  const std::uint64_t gen = e.gen;
  auto fire = [this, id, gen] { on_phase_event(id, gen); };
  static_assert(EventQueue::Callback::stores_inline<decltype(fire)>);
  engine_->after(eta, std::move(fire));
}

void Server::on_phase_event(ExecId id, std::uint64_t gen) {
  const std::size_t pos = find(id);
  // Stale event: the execution finished or was aborted, or a recompute
  // rescheduled it. It still fires (and counts as an engine event).
  if (pos == active_.size() || slots_[active_[pos]].gen != gen) return;
  Exec& e = slots_[active_[pos]];
  const SimTime now = engine_->now();
  // Bank the final slice of this phase.
  const double dt = now - e.last_update;
  if (dt > 0.0) {
    e.ipc_integral += e.obs.ipc * dt;
    e.busy_integral += dt;
    if (sink_ != nullptr) {
      sink_->on_exec_slice(e.owner, now, dt, e.obs, e.phases[e.phase_idx]);
    }
  }
  e.last_update = now;
  e.remaining = 0.0;

  if (e.phase_idx + 1 < e.phases.size()) {
    ++e.phase_idx;
    e.remaining = e.phases[e.phase_idx].solo_duration_s;
    recompute();
    return;
  }
  // Execution complete: gather the result, remove, then notify.
  ExecResult result;
  result.duration_s = now - e.started;
  for (const auto& p : e.phases) result.solo_s += p.solo_duration_s;
  result.mean_ipc =
      e.busy_integral > 0.0 ? e.ipc_integral / e.busy_integral : 0.0;
  result.mean_slowdown =
      result.solo_s > 0.0 ? result.duration_s / result.solo_s : 1.0;
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->complete(
        e.started, result.duration_s, "server.exec", "server",
        obs::Lanes::kPlatform, /*tid=*/100 + id_,
        {{"slowdown", obs::json_number(result.mean_slowdown)},
         {"ipc", obs::json_number(result.mean_ipc)}});
  }
  CompletionFn on_complete = std::move(e.on_complete);
  release(pos);
  recompute();
  if (on_complete) on_complete(result);
}

}  // namespace gsight::sim
