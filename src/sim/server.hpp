// Server — one physical node executing function phases under the
// interference model. Executions progress at rates that depend on the
// whole colocation set; any membership or phase change triggers a
// recompute that (a) banks elapsed progress at the old rates, (b)
// re-evaluates rates, and (c) reschedules completion events. Stale events
// are invalidated by per-execution generation counters.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "sim/inline_function.hpp"
#include "sim/interference.hpp"
#include "sim/resources.hpp"
#include "workloads/function_spec.hpp"

namespace gsight::sim {

using ExecId = std::uint64_t;

/// Measured outcome of one completed execution.
struct ExecResult {
  double duration_s = 0.0;     ///< wall-clock busy time
  double solo_s = 0.0;         ///< what the same work took solo
  double mean_ipc = 0.0;       ///< time-weighted effective IPC
  double mean_slowdown = 1.0;  ///< duration / solo
};

/// Hook for exact, time-weighted metric accounting: called for every
/// execution each time progress is banked, with the observation that was
/// in force during [now-dt, now].
class ExecSliceSink {
 public:
  virtual ~ExecSliceSink() = default;
  virtual void on_exec_slice(void* owner, SimTime end, double dt,
                             const ExecObservation& obs,
                             const wl::Phase& phase) = 0;
  /// An execution was retracted (clone cancellation, migration) before
  /// completing; its final partial slice is not banked. Default no-op.
  virtual void on_exec_aborted(void* owner, SimTime when) {
    (void)owner;
    (void)when;
  }
};

class Server {
 public:
  Server(std::size_t id, ServerConfig config, Engine* engine,
         const InterferenceModel* model);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::size_t id() const { return id_; }
  const ServerConfig& config() const { return config_; }

  /// 56 bytes hold Instance's completion closure: the instance, the
  /// queue wait, the cold flag and the invocation's DoneFn.
  using CompletionFn = InlineFunction<void(const ExecResult&), 56>;

  /// Start executing `phases` (already jittered / startup-prefixed). The
  /// phases are copied into the execution's reused buffer. `owner` is an
  /// opaque tag passed to the slice sink (the Instance).
  ExecId begin_execution(const std::vector<wl::Phase>& phases,
                         CompletionFn on_complete, void* owner = nullptr);
  /// Abort a running execution (migration / scale-down); no completion
  /// callback fires. Returns false if the id is not active.
  bool abort_execution(ExecId id);

  std::size_t active_count() const { return active_.size(); }
  /// Ids of active executions started with the given owner tag.
  std::vector<ExecId> executions_of(const void* owner) const;
  /// Observation currently in force for an active execution (nullptr when
  /// the id is not active).
  const ExecObservation* observation(ExecId id) const;
  /// Sum of demands of the currently running phases.
  DemandTotals active_demand() const;

  /// Residency accounting (idle instances still hold memory). Memory is
  /// deliberately oversubscribable — serverless platforms over-commit —
  /// but the ledger contracts still guarantee it never goes negative.
  void add_resident(double mem_gb);
  void remove_resident(double mem_gb);
  double resident_mem_gb() const { return resident_mem_.used(); }
  std::size_t resident_count() const { return resident_count_; }

  /// Fraction of cores granted to running executions right now (0..1+).
  double cpu_utilization() const;

  void set_slice_sink(ExecSliceSink* sink) { sink_ = sink; }
  /// Observability: when the tracer is enabled, every completed execution
  /// emits an "exec" span on this server's trace lane.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Exec {
    ExecId id = 0;
    /// Reused across the executions that occupy this slot: assign()
    /// keeps the capacity, and phase names fit the small-string buffer.
    std::vector<wl::Phase> phases;
    std::size_t phase_idx = 0;
    double remaining = 0.0;  ///< solo-seconds left in the current phase
    double rate = 1.0;
    SimTime last_update = 0.0;
    std::uint64_t gen = 0;
    CompletionFn on_complete;
    void* owner = nullptr;
    ExecObservation obs;
    // Accumulators for ExecResult.
    SimTime started = 0.0;
    double ipc_integral = 0.0;
    double busy_integral = 0.0;
  };

  /// Bank progress at old rates, re-evaluate the colocation, reschedule.
  void recompute();
  void schedule_completion(Exec& e);
  void on_phase_event(ExecId id, std::uint64_t gen);
  /// Position of execution `id` in active_, or active_.size() when the
  /// id is not running.
  std::size_t find(ExecId id) const;
  /// Drop active_[pos]; its slot (and the slot's phase buffer) is reused
  /// by a later begin_execution.
  void release(std::size_t pos);

  std::size_t id_;
  ServerConfig config_;
  Engine* engine_;
  const InterferenceModel* model_;
  ExecSliceSink* sink_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  // Executions live in reused slots; active_ lists the running ones'
  // slot indices ordered by ExecId (= start order), so every iteration —
  // in particular the colocation handed to the interference model in
  // recompute() — is replay-deterministic. Starting an execution appends
  // (ids only grow) and finishing one erases in place, so the order
  // holds without sorting.
  std::vector<Exec> slots_;
  std::vector<std::uint32_t> active_;
  std::vector<std::uint32_t> free_slots_;
  // recompute()'s colocation and its observations, reused every call.
  std::vector<const wl::Phase*> colocation_;
  std::vector<ExecObservation> observations_;
  ExecId next_id_ = 1;
  ResourceLedger resident_mem_;
  std::size_t resident_count_ = 0;
};

}  // namespace gsight::sim
