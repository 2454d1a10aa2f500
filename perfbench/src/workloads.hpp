// The benchmark's four workloads: each is a set of unique grid cells (the
// direct pass runs every cell once through make_run_config + Cluster) plus
// a request stream over those cells for the sweep-service pass (one cold
// run_batch over `cold_stream`, then one run_batch per `warm_stream` entry).
//
// Everything here is a pure function of (workload name, seed): the same seed
// gives the same cells in the same order and the same request streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep_service.hpp"

namespace perfbench {

struct Cell {
  std::string key;             ///< stable label, also the digest-file key
  mot3d::sim::SweepJob job;    ///< grid cell + scale + seed
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;                 ///< unique, in grid order
  std::vector<std::size_t> cold_stream;    ///< indices into cells, one batch
  std::vector<std::size_t> warm_stream;    ///< indices, one batch each
};

/// Builds a workload; throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The ScenarioOptions a job's cluster is configured with (the same
/// translation SweepService::run_batch applies), optionally with the
/// sampled phase timer on.
mot3d::sim::ScenarioOptions job_options(const mot3d::sim::SweepJob& job,
                                        bool phase_timing);

}  // namespace perfbench
