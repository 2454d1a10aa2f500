// Unit tests for the DRAM backend: latency presets, Miss-bus round-robin
// fairness, channel serialisation and the optional open-page policy.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mem/dram.hpp"

namespace mot3d::mem {
namespace {

DramConfig cfg_200() {
  DramConfig c;
  c.access_latency_ns = 200.0;
  c.bus_transfer_cycles = 2;
  c.channel_burst_cycles = 4;
  return c;
}

TEST(DramPresets, PaperLatencies) {
  EXPECT_DOUBLE_EQ(dram_latency_ns(DramPreset::kDdr3_200ns), 200.0);
  EXPECT_DOUBLE_EQ(dram_latency_ns(DramPreset::kWideIo_63ns), 63.0);
  EXPECT_DOUBLE_EQ(dram_latency_ns(DramPreset::kWeis3d_42ns), 42.0);
  EXPECT_NE(std::string(dram_preset_name(DramPreset::kWideIo_63ns)).find("63"),
            std::string::npos);
}

TEST(Dram, SingleReadLatency) {
  DramBackend dram(cfg_200(), 4);
  Cycle done_at = 0;
  dram.read(0, 0x1000, 0, [&](std::uint32_t, Addr, Cycle done) { done_at = done; });
  for (Cycle t = 0; t <= 300 && done_at == 0; ++t) dram.tick(t);
  // bus (2) + latency (200); completion fires on the tick after due.
  EXPECT_GE(done_at, 202u);
  EXPECT_LE(done_at, 208u);
  EXPECT_TRUE(dram.idle());
  EXPECT_EQ(dram.stats().reads, 1u);
}

TEST(Dram, WritesArePostedAndDrain) {
  DramBackend dram(cfg_200(), 4);
  dram.write(1, 0x2000, 0);
  dram.write(1, 0x3000, 0);
  for (Cycle t = 0; t <= 50; ++t) dram.tick(t);
  EXPECT_TRUE(dram.idle());
  EXPECT_EQ(dram.stats().writes, 2u);
}

TEST(Dram, RoundRobinAcrossRequesters) {
  // Three requesters each enqueue 2 reads at t=0; grants must interleave
  // 0,1,2,0,1,2 (the paper's round-robin Miss bus).
  DramBackend dram(cfg_200(), 3);
  std::vector<std::uint32_t> completion_order;
  for (std::uint32_t r = 0; r < 3; ++r) {
    for (int k = 0; k < 2; ++k) {
      dram.read(r, 0x1000 * r + 0x10 * k, 0,
                [&](std::uint32_t req, Addr, Cycle) { completion_order.push_back(req); });
    }
  }
  for (Cycle t = 0; t <= 400; ++t) dram.tick(t);
  ASSERT_EQ(completion_order.size(), 6u);
  EXPECT_EQ(completion_order, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));
}

TEST(Dram, QueueingDelaysLaterRequests) {
  DramBackend dram(cfg_200(), 1);
  std::vector<Cycle> done;
  for (int k = 0; k < 4; ++k) {
    dram.read(0, 0x40u * k, 0, [&](std::uint32_t, Addr, Cycle d) { done.push_back(d); });
  }
  for (Cycle t = 0; t <= 600; ++t) dram.tick(t);
  ASSERT_EQ(done.size(), 4u);
  // Channel serialisation spaces completions by >= burst cycles.
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_GE(done[i], done[i - 1] + 4);
  }
}

TEST(Dram, WaitCyclesAccounted) {
  DramBackend dram(cfg_200(), 1);
  int completions = 0;
  for (int k = 0; k < 3; ++k) {
    dram.read(0, 0x40u * k, 0, [&](std::uint32_t, Addr, Cycle) { ++completions; });
  }
  for (Cycle t = 0; t <= 600; ++t) dram.tick(t);
  EXPECT_EQ(completions, 3);
  EXPECT_GT(dram.stats().total_wait_cycles, 0u);
}

TEST(Dram, FasterPresetCompletesSooner) {
  DramConfig fast = cfg_200();
  fast.access_latency_ns = 42.0;
  DramBackend d42(fast, 1);
  DramBackend d200(cfg_200(), 1);
  Cycle c42 = 0, c200 = 0;
  d42.read(0, 0, 0, [&](std::uint32_t, Addr, Cycle d) { c42 = d; });
  d200.read(0, 0, 0, [&](std::uint32_t, Addr, Cycle d) { c200 = d; });
  for (Cycle t = 0; t <= 300; ++t) {
    d42.tick(t);
    d200.tick(t);
  }
  EXPECT_LT(c42, c200);
  EXPECT_NEAR(static_cast<double>(c200 - c42), 158.0, 3.0);
}

TEST(Dram, OpenPagePolicyTracksRowHits) {
  DramConfig c = cfg_200();
  c.open_page_policy = true;
  DramBackend dram(c, 1);
  std::vector<Cycle> done;
  // Same 4 KB page twice, then a different page.
  dram.read(0, 0x0000, 0, [&](std::uint32_t, Addr, Cycle d) { done.push_back(d); });
  dram.read(0, 0x0100, 0, [&](std::uint32_t, Addr, Cycle d) { done.push_back(d); });
  dram.read(0, 0x9000, 0, [&](std::uint32_t, Addr, Cycle d) { done.push_back(d); });
  for (Cycle t = 0; t <= 800; ++t) dram.tick(t);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(dram.stats().page_hits, 1u);
  EXPECT_EQ(dram.stats().page_misses, 2u);
  // The row hit is served faster than a full access.
  EXPECT_LT(done[1] - done[0], 200u);
}

TEST(Dram, FirstAccessIsAlwaysAPageMiss) {
  // Regression: the open-row tracker starts at kNoOpenPage.  A sentinel
  // that aliased a real page number (page 0, or a truncated kNeverCycle)
  // would count the very first access as a spurious row hit.
  DramConfig c = cfg_200();
  c.open_page_policy = true;
  DramBackend dram(c, 1);
  Cycle done = 0;
  dram.read(0, 0x0000, 0, [&](std::uint32_t, Addr, Cycle d) { done = d; });
  for (Cycle t = 0; t <= 300; ++t) dram.tick(t);
  EXPECT_EQ(dram.stats().page_misses, 1u);
  EXPECT_EQ(dram.stats().page_hits, 0u);
  // The miss pays the full access latency, not the row-hit discount.
  EXPECT_GE(done, 202u);
}

TEST(Dram, RowHitSavingMatchesConfiguredFraction) {
  DramConfig c = cfg_200();
  c.open_page_policy = true;
  DramBackend dram(c, 1);
  Cycle done_miss = 0, done_hit = 0;
  dram.read(0, 0x0000, 0, [&](std::uint32_t, Addr, Cycle d) { done_miss = d; });
  for (Cycle t = 0; t <= 300; ++t) dram.tick(t);
  ASSERT_TRUE(dram.idle());
  dram.read(0, 0x0040, 300, [&](std::uint32_t, Addr, Cycle d) { done_hit = d; });
  for (Cycle t = 300; t <= 600; ++t) dram.tick(t);
  ASSERT_EQ(dram.stats().page_hits, 1u);
  // Identical pipelines except the access latency: the service-time delta
  // is exactly the configured row-hit saving.
  const Cycle miss_lat = done_miss - 0;
  const Cycle hit_lat = done_hit - 300;
  EXPECT_EQ(miss_lat - hit_lat,
            static_cast<Cycle>(std::llround(c.access_latency_ns *
                                            c.row_hit_fraction_saved)));
}

TEST(Dram, OpenPageSequenceHitsAndMissesDirected) {
  DramConfig c = cfg_200();
  c.open_page_policy = true;
  DramBackend dram(c, 1);
  // Page sequence 0,0,1,1,0: hits at the two repeats, misses elsewhere.
  const Addr seq[] = {0x0000, 0x0800, 0x1000, 0x1800, 0x0000};
  int completions = 0;
  for (Addr a : seq) {
    dram.read(0, a, 0, [&](std::uint32_t, Addr, Cycle) { ++completions; });
  }
  for (Cycle t = 0; t <= 2000; ++t) dram.tick(t);
  EXPECT_EQ(completions, 5);
  EXPECT_EQ(dram.stats().page_hits, 2u);
  EXPECT_EQ(dram.stats().page_misses, 3u);
}

TEST(Dram, EnergyAccounted) {
  DramBackend dram(cfg_200(), 1);
  dram.read(0, 0, 0, [](std::uint32_t, Addr, Cycle) {});
  dram.write(0, 64, 0);
  for (Cycle t = 0; t <= 300; ++t) dram.tick(t);
  EXPECT_DOUBLE_EQ(dram.stats().dynamic_energy_pj,
                   2.0 * cfg_200().energy_per_access_pj);
}

// More requesters than one 64-bit word of the busy-queue bitset: the
// round-robin must still visit queues in (rr_next_ + i) % n order, across
// word boundaries and across the wrap back to requester 0.
TEST(Dram, RoundRobinWrapsAcrossBitsetWords) {
  DramBackend dram(cfg_200(), 130);  // words 0-63, 64-127, 128-129
  std::vector<std::uint32_t> grants;
  const auto read = [&](std::uint32_t r, Cycle dated) {
    dram.read(r, 0x1000 * r, dated,
              [&grants](std::uint32_t req, Addr, Cycle) { grants.push_back(req); });
  };
  read(99, 0);
  dram.tick(0);  // grants 99 alone: the round-robin resumes at 100
  // Pending on both sides of rr_next_ = 100, two of them at requester 100,
  // and one dated far in the future that is passed over until it is due.
  for (std::uint32_t r : {129u, 5u, 64u, 100u, 127u, 0u, 63u, 100u}) read(r, 1);
  read(110, 3'000);
  for (Cycle t = 1; t <= 4'000; ++t) dram.tick(t);
  EXPECT_EQ(grants, (std::vector<std::uint32_t>{99, 100, 127, 129, 0, 5, 63, 64,
                                                100, 110}));
  EXPECT_TRUE(dram.idle());
}

TEST(Dram, NextEventIsTheEarliestHeadAcrossBitsetWords) {
  DramBackend dram(cfg_200(), 200);
  // Heads dated in the future, one per word: the per-queue minimum of
  // max(bus_free, head, now) is the earliest head, 300.
  dram.write(150, 0x100, 900);
  dram.write(7, 0x200, 400);
  dram.write(64, 0x300, 650);
  dram.write(199, 0x400, 300);
  EXPECT_EQ(dram.next_event(0), 300u);
  EXPECT_EQ(dram.next_event(299), 300u);
  for (Cycle t = 0; t <= 300; ++t) dram.tick(t);  // grants 199; bus busy to 302
  EXPECT_EQ(dram.next_event(301), 400u);
  // A due head behind a busy bus waits for the bus.
  dram.write(3, 0x500, 301);
  EXPECT_EQ(dram.next_event(301), 302u);
  for (Cycle t = 301; t <= 302; ++t) dram.tick(t);  // grants 3
  EXPECT_EQ(dram.next_event(303), 400u);
  for (Cycle t = 303; t <= 900; ++t) dram.tick(t);
  EXPECT_TRUE(dram.idle());
  EXPECT_EQ(dram.next_event(901), kNeverCycle);
  EXPECT_EQ(dram.stats().writes, 5u);
}

TEST(Dram, RejectsZeroRequesters) {
  EXPECT_THROW(DramBackend(cfg_200(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace mot3d::mem
