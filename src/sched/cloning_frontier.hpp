// Cloning frontier — does gateway-level request cloning help or backfire
// under partial interference? Sweeps clone factor × interference
// intensity × service discipline over independent replications and
// condenses each cell into tail-latency summaries (mean ± ci95). The
// qualitative result this reproduces: cloning lowers p99 when servers are
// quiet (min-of-d samples trims the jitter tail) and *worsens* it once
// clones colocate with heavy antagonists — the extra load the clones
// themselves inject pushes the contended servers past saturation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "obs/run_report.hpp"
#include "sched/campaign.hpp"
#include "sim/gateway.hpp"
#include "sim/resources.hpp"

namespace gsight::sched {

struct CloningFrontierConfig {
  /// Gateway fan-out values to sweep (1 = no cloning baseline).
  std::vector<std::size_t> clone_factors{1, 2, 3};
  /// Interference intensities: background antagonist jobs pinned to EACH
  /// server for the whole horizon.
  std::vector<std::size_t> interference_levels{0, 3};
  std::vector<sim::ServiceDiscipline> disciplines{
      sim::ServiceDiscipline::kSerial,
      sim::ServiceDiscipline::kProcessorSharing};
  sim::CloneConfig::Policy policy = sim::CloneConfig::Policy::kIndependent;
  std::size_t replications = 3;
  std::size_t servers = 4;  ///< socket-sized nodes, one LS replica each
  double qps = 28.0;        ///< open-loop arrival rate toward the LS app
  double duration_s = 30.0; ///< arrival window; then drain
  double drain_s = 10.0;
  /// Duration jitter of the LS function — the tail that cloning trims.
  double jitter_sigma = 0.6;
  std::uint64_t seed = 20210914;
  core::CampaignOptions campaign;

  /// Throws std::invalid_argument naming the first bad field: fewer than
  /// one replication or server, a non-finite or non-positive qps or
  /// duration_s, a non-finite or negative drain_s or jitter_sigma, or an
  /// empty factor, level or discipline list. run_cloning_frontier calls
  /// this first, so a bad sweep never writes a report of zeros.
  void validate() const;
};

/// One (clone factor, interference level, discipline) cell of the sweep.
struct FrontierCell {
  std::size_t clone_factor = 1;
  std::size_t antagonists = 0;
  sim::ServiceDiscipline discipline = sim::ServiceDiscipline::kSerial;
  /// Report row prefix, e.g. "clone2.bg3.ps.".
  std::string prefix;
  MetricSummary mean_latency;
  MetricSummary p50;
  MetricSummary p99;
  MetricSummary p999;
  MetricSummary p9999;
  MetricSummary completed;
  MetricSummary clones_cancelled;
};

struct CloningFrontierResult {
  std::vector<FrontierCell> cells;

  const FrontierCell* find(std::size_t clone_factor, std::size_t antagonists,
                           sim::ServiceDiscipline discipline) const;
  /// Emit "<prefix><metric>.mean"/".ci95" result rows plus a per-cell
  /// "<prefix>replications" series with the raw per-replication values.
  void write_into(obs::RunReport& report) const;
};

/// Short row label for a discipline ("serial" / "ps").
std::string discipline_label(sim::ServiceDiscipline d);

/// Run the sweep. Cells execute in order; replications within a cell fan
/// out across config.campaign.threads with per-replication derived seeds,
/// so the result is bit-identical at any thread count.
CloningFrontierResult run_cloning_frontier(const CloningFrontierConfig& config);

}  // namespace gsight::sched
