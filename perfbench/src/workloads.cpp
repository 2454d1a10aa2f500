#include "workloads.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace perfbench {

namespace {

using mot3d::cluster::Fabric;
using mot3d::mem::DramPreset;
using mot3d::sim::DramBackendMode;
using mot3d::sim::ScenarioRun;
using mot3d::sim::SweepJob;

// Per-workload scales: large enough that one pass runs for seconds and
// (on scale_sharing) Cluster::run clearly outweighs Cluster construction.
constexpr double kFig6Scale = 0.005;
constexpr double kScaleSharingScale = 0.03;
constexpr double kMotStatesScale = 0.04;
constexpr double kServiceScale = 0.003;

// Warm requests per pass on the simulation workloads (the p90 has a
// hundred samples beyond it), and on sweep_service the warm stream length
// and the extra cold draws that create in-batch duplicates.
constexpr std::size_t kGridWarmRequests = 1000;
constexpr std::size_t kServiceWarmRequests = 6000;
constexpr std::size_t kServiceColdDuplicates = 48;

// A tight thermal envelope on mot_states: a 60 C ceiling over a 45 C
// ambient makes the governor demote while the vault remap is engaged.
constexpr mot3d::thermal::ThermalEnvelope kTightEnvelope{true, 45.0, 55.0};

std::string cell_key(const ScenarioRun& r) {
  std::string k = r.app + "/" + mot3d::sim::fabric_key(r.fabric) + "/" +
                  r.state.name() + "/" +
                  std::to_string(static_cast<int>(mot3d::mem::dram_latency_ns(r.dram))) +
                  "/" + mot3d::sim::dram_backend_key(r.dram_backend);
  if (r.thermal.enabled) {
    k += "/t" + std::to_string(static_cast<int>(r.thermal.ambient_c)) + "-" +
         std::to_string(static_cast<int>(r.thermal.ceiling_c));
  }
  return k;
}

void add_cell(Workload& w, ScenarioRun run, double scale, std::uint64_t seed) {
  SweepJob job;
  job.run = std::move(run);
  job.scale = scale;
  job.seed = seed;
  w.cells.push_back(Cell{cell_key(job.run), std::move(job)});
}

ScenarioRun make_run(const std::string& app, Fabric fabric,
                     const std::string& state, DramPreset dram,
                     DramBackendMode backend = DramBackendMode::kConstant) {
  ScenarioRun r;
  r.app = app;
  r.fabric = fabric;
  r.state = mot3d::sim::power_state_by_name(state);
  r.dram = dram;
  r.dram_backend = backend;
  return r;
}

// Simulation workloads: the cold batch is the grid once, the warm stream
// re-requests cells drawn uniformly with a seeded generator.
void fill_grid_streams(Workload& w, std::uint64_t seed) {
  w.cold_stream.resize(w.cells.size());
  std::iota(w.cold_stream.begin(), w.cold_stream.end(), std::size_t{0});
  mot3d::Rng rng(seed ^ 0x5EEDF00DULL);
  for (std::size_t i = 0; i < kGridWarmRequests; ++i) {
    w.warm_stream.push_back(rng.next_below(w.cells.size()));
  }
}

Workload fig6_fabrics(std::uint64_t seed) {
  Workload w{"fig6_fabrics", {}, {}, {}};
  for (const char* app : {"fft", "radix", "ocean_contiguous", "water_nsquared"}) {
    for (Fabric f : {Fabric::kMot, Fabric::kTrueMesh3d, Fabric::kHybridBusMesh,
                     Fabric::kHybridBusTree}) {
      add_cell(w, make_run(app, f, "Full", DramPreset::kDdr3_200ns), kFig6Scale,
               seed);
    }
  }
  fill_grid_streams(w, seed);
  return w;
}

Workload scale_sharing(std::uint64_t seed) {
  Workload w{"scale_sharing", {}, {}, {}};
  for (const char* app :
       {"migratory", "all_to_all", "producer_consumer", "read_mostly"}) {
    for (const char* state : {"Full256x512", "Full1024x2048"}) {
      add_cell(w, make_run(app, Fabric::kMot, state, DramPreset::kDdr3_200ns),
               kScaleSharingScale, seed);
    }
  }
  fill_grid_streams(w, seed);
  return w;
}

Workload mot_states(std::uint64_t seed) {
  Workload w{"mot_states", {}, {}, {}};
  for (const char* app : {"ocean_contiguous", "radix"}) {
    for (const char* state : {"Full", "PC16-MB8", "PC8-MB16", "PC4-MB8"}) {
      add_cell(w, make_run(app, Fabric::kMot, state, DramPreset::kDdr3_200ns),
               kMotStatesScale, seed);
      add_cell(w, make_run(app, Fabric::kMot, state, DramPreset::kWeis3d_42ns),
               kMotStatesScale, seed);
      ScenarioRun stacked = make_run(app, Fabric::kMot, state,
                                     DramPreset::kWeis3d_42ns,
                                     DramBackendMode::kStackedRemap);
      stacked.thermal = kTightEnvelope;
      add_cell(w, std::move(stacked), kMotStatesScale, seed);
    }
  }
  fill_grid_streams(w, seed);
  return w;
}

// sweep_service: a pool of small 16-core jobs; the cold batch holds every
// pool job once plus seeded duplicate draws (deduped in-batch), shuffled;
// the warm stream draws single-job requests from the same pool, so every
// warm request is a cache hit.
Workload sweep_service(std::uint64_t seed) {
  Workload w{"sweep_service", {}, {}, {}};
  for (const char* app : {"fft", "radix", "ocean_contiguous", "water_nsquared",
                          "cholesky", "fmm"}) {
    for (const char* state : {"Full", "PC4-MB8"}) {
      for (DramPreset d : {DramPreset::kDdr3_200ns, DramPreset::kWeis3d_42ns}) {
        add_cell(w, make_run(app, Fabric::kMot, state, d), kServiceScale, seed);
      }
    }
  }
  mot3d::Rng rng(seed ^ 0x5E7F1CEULL);
  w.cold_stream.resize(w.cells.size());
  std::iota(w.cold_stream.begin(), w.cold_stream.end(), std::size_t{0});
  for (std::size_t i = 0; i < kServiceColdDuplicates; ++i) {
    w.cold_stream.push_back(rng.next_below(w.cells.size()));
  }
  for (std::size_t i = w.cold_stream.size(); i > 1; --i) {
    std::swap(w.cold_stream[i - 1], w.cold_stream[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < kServiceWarmRequests; ++i) {
    w.warm_stream.push_back(rng.next_below(w.cells.size()));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fig6_fabrics") return fig6_fabrics(seed);
  if (name == "scale_sharing") return scale_sharing(seed);
  if (name == "mot_states") return mot_states(seed);
  if (name == "sweep_service") return sweep_service(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

mot3d::sim::ScenarioOptions job_options(const SweepJob& job, bool phase_timing) {
  mot3d::sim::ScenarioOptions opt;
  opt.scale = job.scale;
  opt.seed = job.seed;
  opt.threads = 1;
  opt.timeout_seconds = job.timeout_seconds;
  opt.phase_timing = phase_timing;
  return opt;
}

}  // namespace perfbench
