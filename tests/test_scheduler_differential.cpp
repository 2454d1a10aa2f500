// Differential tests for the event-driven scheduler: the quiescence-
// skipping run loop must produce *bit-identical* results to the dense
// per-cycle reference on every fabric, power state and DRAM preset —
// cycles, latency histograms, every counter and every energy ledger entry.
#include <gtest/gtest.h>

#include <sstream>

#include "cluster/cluster.hpp"

namespace mot3d::cluster {
namespace {

ClusterConfig cfg_for(const char* app, Fabric fabric, const core::PowerState& state,
                      mem::DramPreset dram, SchedulerMode scheduler,
                      double scale = 0.01) {
  ClusterConfig cfg = make_paper_config(workload::profile_by_name(app), fabric,
                                        state, dram, scale, 42);
  cfg.scheduler = scheduler;
  return cfg;
}

void expect_same_histogram(const Histogram& a, const Histogram& b,
                           const char* what) {
  ASSERT_EQ(a.num_buckets(), b.num_buckets()) << what;
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_DOUBLE_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.overflow(), b.overflow()) << what;
  for (std::size_t i = 0; i < a.num_buckets(); ++i) {
    ASSERT_EQ(a.bucket_count(i), b.bucket_count(i)) << what << " bucket " << i;
  }
}

void expect_same_result(const SimResult& dense, const SimResult& event) {
  EXPECT_EQ(dense.cycles, event.cycles);
  EXPECT_EQ(dense.instructions, event.instructions);

  expect_same_histogram(dense.l2_latency, event.l2_latency, "l2_latency");
  expect_same_histogram(dense.l2_hit_latency, event.l2_hit_latency,
                        "l2_hit_latency");

  EXPECT_EQ(dense.l2.hits, event.l2.hits);
  EXPECT_EQ(dense.l2.misses, event.l2.misses);
  EXPECT_EQ(dense.l2.writebacks, event.l2.writebacks);
  EXPECT_EQ(dense.l2.bank_conflict_cycles, event.l2.bank_conflict_cycles);
  EXPECT_DOUBLE_EQ(dense.l2.dynamic_energy_pj, event.l2.dynamic_energy_pj);

  EXPECT_EQ(dense.dram.reads, event.dram.reads);
  EXPECT_EQ(dense.dram.writes, event.dram.writes);
  EXPECT_EQ(dense.dram.total_wait_cycles, event.dram.total_wait_cycles);
  EXPECT_DOUBLE_EQ(dense.dram.dynamic_energy_pj, event.dram.dynamic_energy_pj);

  EXPECT_EQ(dense.interconnect.requests_injected,
            event.interconnect.requests_injected);
  EXPECT_EQ(dense.interconnect.requests_delivered,
            event.interconnect.requests_delivered);
  EXPECT_EQ(dense.interconnect.responses_injected,
            event.interconnect.responses_injected);
  EXPECT_EQ(dense.interconnect.responses_delivered,
            event.interconnect.responses_delivered);
  EXPECT_EQ(dense.interconnect.arbitration_wait_cycles,
            event.interconnect.arbitration_wait_cycles);

  EXPECT_EQ(dense.l2_resident_lines, event.l2_resident_lines);
  EXPECT_DOUBLE_EQ(dense.l1d_miss_rate, event.l1d_miss_rate);
  EXPECT_DOUBLE_EQ(dense.l1i_miss_rate, event.l1i_miss_rate);

  for (power::Component c :
       {power::Component::kCore, power::Component::kL1, power::Component::kL2,
        power::Component::kInterconnect, power::Component::kDram}) {
    EXPECT_DOUBLE_EQ(dense.energy.dynamic_pj(c), event.energy.dynamic_pj(c))
        << power::component_name(c);
    EXPECT_DOUBLE_EQ(dense.energy.static_pj(c), event.energy.static_pj(c))
        << power::component_name(c);
  }
  EXPECT_DOUBLE_EQ(dense.edp_pj_s, event.edp_pj_s);
  EXPECT_DOUBLE_EQ(dense.avg_power_w, event.avg_power_w);

  // Coherence traffic is a modeled quantity like any other: the directory
  // counters must agree to the last message.
  EXPECT_EQ(dense.coherence_enabled, event.coherence_enabled);
  EXPECT_EQ(dense.coherence.invalidations, event.coherence.invalidations);
  EXPECT_EQ(dense.coherence.inv_acks, event.coherence.inv_acks);
  EXPECT_EQ(dense.coherence.data_forwards, event.coherence.data_forwards);
  EXPECT_EQ(dense.coherence.upgrades, event.coherence.upgrades);
  EXPECT_EQ(dense.coherence.sharing_misses, event.coherence.sharing_misses);
  EXPECT_EQ(dense.coherence.dir_accesses, event.coherence.dir_accesses);
  EXPECT_EQ(dense.coherence.dir_peak_entries, event.coherence.dir_peak_entries);
  EXPECT_EQ(dense.coh_dir_entries, event.coh_dir_entries);

  EXPECT_DOUBLE_EQ(dense.l2_bank_hit_rate_min, event.l2_bank_hit_rate_min);
  EXPECT_DOUBLE_EQ(dense.l2_bank_hit_rate_max, event.l2_bank_hit_rate_max);
  EXPECT_DOUBLE_EQ(dense.l2_bank_hit_rate_spread, event.l2_bank_hit_rate_spread);

  ASSERT_EQ(dense.cores.size(), event.cores.size());
  for (std::size_t i = 0; i < dense.cores.size(); ++i) {
    EXPECT_EQ(dense.cores[i].instructions, event.cores[i].instructions) << i;
    EXPECT_EQ(dense.cores[i].busy_cycles, event.cores[i].busy_cycles) << i;
    EXPECT_EQ(dense.cores[i].stall_cycles, event.cores[i].stall_cycles) << i;
    EXPECT_EQ(dense.cores[i].spin_cycles, event.cores[i].spin_cycles) << i;
    EXPECT_EQ(dense.cores[i].idle_cycles, event.cores[i].idle_cycles) << i;
    EXPECT_EQ(dense.cores[i].l2_requests, event.cores[i].l2_requests) << i;
    EXPECT_EQ(dense.cores[i].l1_writebacks, event.cores[i].l1_writebacks) << i;
    EXPECT_EQ(dense.cores[i].ifetch_misses, event.cores[i].ifetch_misses) << i;
    EXPECT_EQ(dense.cores[i].invalidations_received,
              event.cores[i].invalidations_received)
        << i;
    EXPECT_EQ(dense.cores[i].upgrades, event.cores[i].upgrades) << i;
    EXPECT_EQ(dense.cores[i].coherence_forwards, event.cores[i].coherence_forwards)
        << i;
    EXPECT_EQ(dense.cores[i].finish_cycle, event.cores[i].finish_cycle) << i;
  }
}

void run_differential(const char* app, Fabric fabric,
                      const core::PowerState& state, mem::DramPreset dram,
                      double scale = 0.01) {
  const SimResult dense =
      Cluster(cfg_for(app, fabric, state, dram, SchedulerMode::kDenseTick, scale))
          .run();
  const SimResult event =
      Cluster(cfg_for(app, fabric, state, dram, SchedulerMode::kEventDriven, scale))
          .run();
  expect_same_result(dense, event);
}

TEST(SchedulerDifferential, MotFullDdr3) {
  run_differential("fft", Fabric::kMot, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, TrueMesh3dFullDdr3) {
  run_differential("fft", Fabric::kTrueMesh3d, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, HybridBusMeshFullDdr3) {
  run_differential("volrend", Fabric::kHybridBusMesh, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, HybridBusTreeFullDdr3) {
  run_differential("radix", Fabric::kHybridBusTree, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, MotGatedPc4Mb8) {
  run_differential("cholesky", Fabric::kMot, core::PowerState::pc4_mb8(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, MotGatedPc16Mb8FastDram) {
  run_differential("fmm", Fabric::kMot, core::PowerState::pc16_mb8(),
                   mem::DramPreset::kWeis3d_42ns);
}

TEST(SchedulerDifferential, MotGatedPc4Mb32WideIo) {
  run_differential("ocean_contiguous", Fabric::kMot, core::PowerState::pc4_mb32(),
                   mem::DramPreset::kWideIo_63ns);
}

// -- coherence traffic: every sharing pattern, both fabrics, gated too --

TEST(SchedulerDifferential, CoherenceProducerConsumerMot) {
  run_differential("producer_consumer", Fabric::kMot, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, CoherenceReadMostlyNoc) {
  run_differential("read_mostly", Fabric::kTrueMesh3d, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

TEST(SchedulerDifferential, CoherenceMigratoryGatedMot) {
  run_differential("migratory", Fabric::kMot, core::PowerState::pc16_mb8(),
                   mem::DramPreset::kWideIo_63ns);
}

TEST(SchedulerDifferential, CoherenceAllToAllMot) {
  run_differential("all_to_all", Fabric::kMot, core::PowerState::full(),
                   mem::DramPreset::kDdr3_200ns);
}

// Coherence + thermal governor: invalidation traffic across a mid-run
// drain/flush/remap (directory migration) and clock-held cores whose
// acknowledgements must keep flowing.
TEST(SchedulerDifferential, CoherenceUnderThermalGovernor) {
  ClusterConfig dense = cfg_for("producer_consumer", Fabric::kMot,
                                core::PowerState::full(),
                                mem::DramPreset::kDdr3_200ns,
                                SchedulerMode::kDenseTick, 0.02);
  dense.thermal = thermal::ThermalConfig::from_envelope(
      thermal::ThermalEnvelope{true, 60.0, 70.0});
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  expect_same_result(Cluster(dense).run(), Cluster(event).run());
}

TEST(SchedulerDifferential, ColdInstructionCachesExerciseIFetchPath) {
  ClusterConfig dense = cfg_for("fft", Fabric::kMot, core::PowerState::full(),
                                mem::DramPreset::kDdr3_200ns,
                                SchedulerMode::kDenseTick);
  dense.warm_instruction_caches = false;
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  expect_same_result(Cluster(dense).run(), Cluster(event).run());
}

// Open-page policy changes per-access service latency based on row-buffer
// state; both schedulers must observe identical hit/miss sequences.
TEST(SchedulerDifferential, OpenPagePolicyBitIdentical) {
  ClusterConfig dense = cfg_for("fft", Fabric::kMot, core::PowerState::full(),
                                mem::DramPreset::kDdr3_200ns,
                                SchedulerMode::kDenseTick);
  dense.dram.open_page_policy = true;
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  const SimResult d = Cluster(dense).run();
  const SimResult e = Cluster(event).run();
  expect_same_result(d, e);
  EXPECT_EQ(d.dram.page_hits, e.dram.page_hits);
  EXPECT_EQ(d.dram.page_misses, e.dram.page_misses);
  EXPECT_GT(d.dram.page_hits + d.dram.page_misses, 0u);
}

// -- active-set scheduling at 256 cores: four 64-bit words of live bits --
//
// The event scheduler ticks only live cores and settles a parked core's
// stall/spin/idle cycles when it wakes or when its stats are read; these
// runs compare every per-core counter against the dense full walk.

core::PowerState full_256() {
  return core::PowerState("Full256x512", 256, 256, 512, 512);
}

void expect_same_per_core_256(const char* app) {
  const ClusterConfig dense =
      cfg_for(app, Fabric::kMot, full_256(), mem::DramPreset::kDdr3_200ns,
              SchedulerMode::kDenseTick);
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  expect_same_result(Cluster(dense).run(), Cluster(event).run());
}

TEST(SchedulerDifferential, PerCore256Migratory) {
  expect_same_per_core_256("migratory");
}

TEST(SchedulerDifferential, PerCore256AllToAll) {
  expect_same_per_core_256("all_to_all");
}

TEST(SchedulerDifferential, PerCore256ProducerConsumer) {
  expect_same_per_core_256("producer_consumer");
}

TEST(SchedulerDifferential, PerCore256ReadMostly) {
  expect_same_per_core_256("read_mostly");
}

// Metrics epochs and watchdog checks read per-core statistics mid-run, so
// every parked core is settled at each boundary; the sampled rows (which
// include the spin-energy ledger) must match the dense run's row for row.
TEST(SchedulerDifferential, PerCore256SettlesAtMetricsEpochsAndWatchdogChecks) {
  ClusterConfig dense = cfg_for("producer_consumer", Fabric::kMot, full_256(),
                                mem::DramPreset::kDdr3_200ns,
                                SchedulerMode::kDenseTick);
  dense.obs.metrics = true;
  dense.obs.metrics_epoch_cycles = 1'000;
  dense.watchdog.enabled = true;
  dense.watchdog.check_interval_cycles = 2'500;
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  const SimResult d = Cluster(dense).run();
  const SimResult e = Cluster(event).run();
  expect_same_result(d, e);
  ASSERT_NE(d.metrics, nullptr);
  ASSERT_NE(e.metrics, nullptr);
  EXPECT_GT(d.metrics->sample_count(), 3u);
  std::ostringstream dj, ej;
  d.metrics->write_json(dj);
  e.metrics->write_json(ej);
  EXPECT_EQ(dj.str(), ej.str());
}

// Barrier releases across bitset words.  Each serial phase runs on thread
// 0 (arena index 0): it releases the barrier while the 255 waiters sit
// parked above it in words 0-3, all of which must tick in the releasing
// cycle.  The parallel phases carry heavy random imbalance, so their
// releasing core lands in words 1-3 too, with waiters below it that must
// tick one cycle later.  Compute-heavy work makes barrier spin the bulk of
// every core's cycles, so an off-by-one settlement shows in spin_cycles.
TEST(SchedulerDifferential, PerCore256BarrierReleaseAcrossBitsetWords) {
  workload::AppProfile app = workload::profile_by_name("fft");
  app.name = "barrier_words";
  app.serial_fraction = 0.2;
  app.phases = 12;
  app.imbalance = 0.9;
  app.mem_fraction = 0.05;
  ClusterConfig dense = make_paper_config(app, Fabric::kMot, full_256(),
                                          mem::DramPreset::kDdr3_200ns, 0.02, 7);
  dense.scheduler = SchedulerMode::kDenseTick;
  ClusterConfig event = dense;
  event.scheduler = SchedulerMode::kEventDriven;
  const SimResult d = Cluster(dense).run();
  const SimResult e = Cluster(event).run();
  expect_same_result(d, e);
  ASSERT_EQ(d.cores.size(), 256u);
  for (std::size_t word = 0; word < 4; ++word) {
    EXPECT_GT(d.cores[word * 64 + 63].spin_cycles, 0u) << "word " << word;
  }
}

TEST(SchedulerDifferential, EventModeIsTheDefault) {
  EXPECT_EQ(ClusterConfig{}.scheduler, SchedulerMode::kEventDriven);
  EXPECT_STREQ(scheduler_name(SchedulerMode::kEventDriven), "event");
  EXPECT_STREQ(scheduler_name(SchedulerMode::kDenseTick), "dense");
}

}  // namespace
}  // namespace mot3d::cluster
