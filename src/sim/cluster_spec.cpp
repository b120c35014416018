#include "sim/cluster_spec.hpp"

#include <stdexcept>
#include <string>

namespace gsight::sim {

namespace {

void require_positive(double value, const char* what) {
  if (!(value > 0.0)) {
    throw std::invalid_argument(std::string("ClusterSpec: ") + what +
                                " must be positive");
  }
}

}  // namespace

void ClusterSpec::validate() const {
  if (servers == 0) {
    throw std::invalid_argument("ClusterSpec: servers must be non-zero");
  }
  require_positive(server.cores, "server.cores");
  require_positive(server.llc_mb, "server.llc_mb");
  require_positive(server.mem_gb, "server.mem_gb");
  require_positive(server.membw_gbps, "server.membw_gbps");
  require_positive(server.disk_mbps, "server.disk_mbps");
  require_positive(server.net_mbps, "server.net_mbps");
  require_positive(server.base_freq_ghz, "server.base_freq_ghz");
  require_positive(interference.mem_latency_cycles,
                   "interference.mem_latency_cycles");
  if (!(interference.max_utilization > 0.0 &&
        interference.max_utilization < 1.0)) {
    throw std::invalid_argument(
        "ClusterSpec: interference.max_utilization must lie in (0, 1)");
  }
}

}  // namespace gsight::sim
