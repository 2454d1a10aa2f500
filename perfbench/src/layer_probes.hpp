// Standalone per-layer probes: each times one layer's public API outside
// any cluster, on inputs drawn from the workload seed, and reports host
// nanoseconds per operation (the median of several repeats).  They carry
// over the component microbenchmarks of the micro_sim scenario (cache,
// MoT, NoC, arbitration, trace generation) and add the directory, stacked
// DRAM, thermal step and sweep-service hashing.
#pragma once

#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct LayerProbeTimes {
  double cache_lookup_ns = 0.0;      ///< mem::Cache::lookup
  double mot_tick_ns = 0.0;          ///< MotInterconnect::tick (+ injections)
  double mot_arbitrate_ns = 0.0;     ///< ArbitrationTree::arbitrate
  double noc_tick_ns = 0.0;          ///< NocInterconnect::tick (+ injections)
  double dir_ns_per_req = 0.0;       ///< CoherenceDirectory::on_request
  double dram3d_access_ns = 0.0;     ///< StackedDram read/write + ticks, per access
  double thermal_step_ns = 0.0;      ///< ThermalModel::advance
  double trace_ns_per_op = 0.0;      ///< SyntheticTrace::next
  double hash_ns = 0.0;              ///< sim::job_hash
};

/// Runs every probe once (a fraction of a second in total).
LayerProbeTimes run_layer_probes(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
