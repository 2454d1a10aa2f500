// Memory-footprint guard for the 1024-core cluster: construction and a
// short run must pay for the state the run touches, not for the topology.
// A Full1024x2048 cluster holds 2048 L2 banks of 64 KB and two L1s per
// core; allocating every way of every cache up front costs about 120 MB,
// while a short run touches a small fraction of the sets.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include "cluster/cluster.hpp"
#include "sim/scenario.hpp"

namespace mot3d {
namespace {

/// Peak resident set of this process so far, in MB (Linux reports KB).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

TEST(Footprint, Full1024ClusterGrowsPeakRssByLessThanBound) {
#ifdef MOT3D_SANITIZED
  GTEST_SKIP() << "sanitizer shadow memory and quarantine inflate the RSS";
#endif
  // Between the dense cache arrays' ~120 MB and the ~10 MB that lazily
  // filled sets need, with wide margin on both sides.
  constexpr double kBoundMb = 48.0;

  sim::ScenarioRun run;
  run.app = "all_to_all";
  run.state = sim::power_state_by_name("Full1024x2048");
  sim::ScenarioOptions opt;
  opt.scale = 0.005;
  opt.seed = 42;
  const cluster::ClusterConfig cfg = sim::make_run_config(run, opt);

  const double before = peak_rss_mb();
  std::uint64_t cycles = 0;
  {
    cluster::Cluster cluster(cfg);
    cycles = cluster.run().cycles;
  }
  const double growth = peak_rss_mb() - before;
  RecordProperty("peak_rss_growth_mb", std::to_string(growth));
  EXPECT_GT(cycles, 0u);
  EXPECT_LT(growth, kBoundMb) << "peak RSS grew " << growth << " MB";
}

}  // namespace
}  // namespace mot3d
