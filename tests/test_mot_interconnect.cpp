// Unit tests for the cycle-level MoT transport: unloaded pipeline latency
// (must equal the Table I budget), non-blocking behaviour across banks,
// per-bank round-robin conflict resolution, remap delivery under gating,
// and energy/stat accounting.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "cacti/sram_model.hpp"
#include "core/mot_interconnect.hpp"

namespace mot3d::core {
namespace {

class MotIcnTest : public ::testing::Test {
 protected:
  phys::TechnologyParams tech = phys::default_technology();
  phys::FloorplanParams fp;
  cacti::SramBankConfig bank;
  MotTimingModel model{tech, fp, bank};

  struct Delivered {
    MemRequest req;
    Cycle at;
  };
  std::vector<Delivered> requests;
  std::vector<std::pair<MemResponse, Cycle>> responses;

  MotInterconnect make(const PowerState& s) {
    MotInterconnect icn(model, s);
    icn.set_request_sink(
        [this](const MemRequest& r, Cycle t) { requests.push_back({r, t}); });
    icn.set_response_sink(
        [this](const MemResponse& r, Cycle t) { responses.emplace_back(r, t); });
    return icn;
  }

  static MemRequest req(CoreId c, BankId b, std::uint64_t id = 1) {
    return MemRequest{.id = id, .core = c, .bank = b, .addr = 0, .is_write = false,
                      .issue_cycle = 0};
  }

  /// Injects one request per (core, logical bank) at `now` and ticks until
  /// all are delivered; returns (physical bank, core) in grant order.
  std::vector<std::pair<BankId, CoreId>> drive(
      MotInterconnect& icn, const std::vector<std::pair<CoreId, BankId>>& reqs,
      Cycle& now) {
    const std::size_t first = requests.size();
    for (const auto& [c, b] : reqs) {
      EXPECT_TRUE(icn.try_inject_request(req(c, b), now));
    }
    for (const Cycle end = now + 200; !icn.idle() && now < end; ++now) icn.tick(now);
    std::vector<std::pair<BankId, CoreId>> order;
    for (std::size_t i = first; i < requests.size(); ++i) {
      order.emplace_back(requests[i].req.bank, requests[i].req.core);
    }
    EXPECT_EQ(order.size(), reqs.size());
    return order;
  }
};

TEST_F(MotIcnTest, UnloadedRequestLatencyMatchesPipeline) {
  MotInterconnect icn = make(PowerState::full());
  ASSERT_TRUE(icn.try_inject_request(req(0, 5), 0));
  const unsigned expect = icn.state_timing().request_cycles;
  for (Cycle t = 0; t <= expect + 2; ++t) icn.tick(t);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].at, expect);
  EXPECT_EQ(requests[0].req.bank, 5u);  // identity remap at full
}

TEST_F(MotIcnTest, UnloadedResponseLatencyMatchesPipeline) {
  MotInterconnect icn = make(PowerState::full());
  MemResponse resp{.id = 1, .core = 2, .bank = 7, .addr = 0, .is_write = false,
                   .l2_hit = true, .issue_cycle = 0};
  ASSERT_TRUE(icn.try_inject_response(resp, 10));
  const unsigned expect = icn.state_timing().response_cycles;
  for (Cycle t = 10; t <= 10 + expect + 2; ++t) icn.tick(t);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].second, 10 + expect);
}

TEST_F(MotIcnTest, NonBlockingAcrossDistinctBanks) {
  // All 16 cores hit 16 distinct banks the same cycle: all delivered
  // together — the MoT's non-blocking property.
  MotInterconnect icn = make(PowerState::full());
  for (CoreId c = 0; c < 16; ++c) {
    ASSERT_TRUE(icn.try_inject_request(req(c, c, c + 1), 0));
  }
  const unsigned expect = icn.state_timing().request_cycles;
  for (Cycle t = 0; t <= expect; ++t) icn.tick(t);
  EXPECT_EQ(requests.size(), 16u);
  for (const auto& d : requests) EXPECT_EQ(d.at, expect);
  EXPECT_EQ(icn.stats().arbitration_wait_cycles, 0u);
}

TEST_F(MotIcnTest, SameBankConflictsSerialiseRoundRobin) {
  MotInterconnect icn = make(PowerState::full());
  for (CoreId c = 0; c < 4; ++c) {
    ASSERT_TRUE(icn.try_inject_request(req(c, 9, c + 1), 0));
  }
  for (Cycle t = 0; t <= 60; ++t) icn.tick(t);
  ASSERT_EQ(requests.size(), 4u);
  // Grants spaced by the circuit hold (bank_hold_cycles = 2 default).
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GE(requests[i].at, requests[i - 1].at + 2);
  }
  // All four cores served (starvation-free).
  std::map<CoreId, int> served;
  for (const auto& d : requests) ++served[d.req.core];
  EXPECT_EQ(served.size(), 4u);
  EXPECT_GT(icn.stats().arbitration_wait_cycles, 0u);
}

TEST_F(MotIcnTest, GatedStateRemapsToPhysicalBanks) {
  MotInterconnect icn = make(PowerState::pc16_mb8());
  // Logical bank 0 folds onto physical bank 12 (centre group).
  ASSERT_TRUE(icn.try_inject_request(req(0, 0), 0));
  for (Cycle t = 0; t <= 20; ++t) icn.tick(t);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].req.bank, 12u);
  EXPECT_EQ(icn.route(31), 19u);
}

TEST_F(MotIcnTest, GatedStateIsFaster) {
  MotInterconnect full = make(PowerState::full());
  MotInterconnect gated = make(PowerState::pc4_mb8());
  EXPECT_LT(gated.state_timing().l2_round_trip(), full.state_timing().l2_round_trip());
  EXPECT_LT(gated.leakage_mw(), full.leakage_mw());
}

TEST_F(MotIcnTest, OneOutstandingPerCore) {
  MotInterconnect icn = make(PowerState::full());
  EXPECT_TRUE(icn.try_inject_request(req(3, 1, 1), 0));
  EXPECT_FALSE(icn.try_inject_request(req(3, 2, 2), 0));  // slot held
  for (Cycle t = 0; t <= 20; ++t) icn.tick(t);
  EXPECT_TRUE(icn.try_inject_request(req(3, 2, 2), 21));
}

TEST_F(MotIcnTest, IdleTracksInFlightWork) {
  MotInterconnect icn = make(PowerState::full());
  EXPECT_TRUE(icn.idle());
  icn.try_inject_request(req(0, 0), 0);
  EXPECT_FALSE(icn.idle());
  for (Cycle t = 0; t <= 20; ++t) icn.tick(t);
  EXPECT_TRUE(icn.idle());
}

TEST_F(MotIcnTest, EnergyAccumulatesPerTransaction) {
  MotInterconnect icn = make(PowerState::full());
  const double e0 = icn.dynamic_energy_pj();
  icn.try_inject_request(req(0, 0), 0);
  const double e1 = icn.dynamic_energy_pj();
  EXPECT_GT(e1, e0);
  MemResponse resp{.id = 1, .core = 0, .bank = 0, .addr = 0, .is_write = false,
                   .l2_hit = true, .issue_cycle = 0};
  icn.try_inject_response(resp, 5);
  EXPECT_GT(icn.dynamic_energy_pj(), e1);
}

TEST_F(MotIcnTest, StatsCount) {
  MotInterconnect icn = make(PowerState::full());
  icn.try_inject_request(req(0, 0), 0);
  for (Cycle t = 0; t <= 20; ++t) icn.tick(t);
  EXPECT_EQ(icn.stats().requests_injected, 1u);
  EXPECT_EQ(icn.stats().requests_delivered, 1u);
  EXPECT_STREQ(icn.name(), "3-D MoT");
}

TEST_F(MotIcnTest, ReconfigureChangesTimingAndRouting) {
  MotInterconnect icn = make(PowerState::full());
  EXPECT_EQ(icn.route(0), 0u);
  EXPECT_EQ(icn.state_timing().l2_round_trip(), 12u);
  icn.configure(PowerState::pc16_mb8());
  EXPECT_EQ(icn.route(0), 12u);
  EXPECT_EQ(icn.state_timing().l2_round_trip(), 9u);
}

TEST_F(MotIcnTest, ConfigureKeepsEachBanksRoundRobinPointers) {
  // Phase 1 leaves different round-robin pointers in banks 0 and 5.  A
  // drained switch to PC4-MB32, which gates most of every arbitration
  // tree, and back must keep them: phase 2 then grants in the same order
  // as on an interconnect that never switched, and in another order than
  // on a fresh one.
  const std::vector<std::pair<CoreId, BankId>> phase1 = {
      {3, 0}, {12, 0}, {0, 5}, {9, 5}, {10, 5}};
  std::vector<std::pair<CoreId, BankId>> phase2;
  for (CoreId c = 0; c < 16; ++c) phase2.emplace_back(c, c % 2 == 0 ? 0 : 5);

  MotInterconnect switched = make(PowerState::full());
  Cycle t = 0;
  drive(switched, phase1, t);
  switched.configure(PowerState::pc4_mb32());
  switched.configure(PowerState::full());
  const auto got = drive(switched, phase2, t);

  MotInterconnect steady = make(PowerState::full());
  Cycle t_steady = 0;
  drive(steady, phase1, t_steady);
  const auto want = drive(steady, phase2, t_steady);
  EXPECT_EQ(got, want);

  MotInterconnect fresh = make(PowerState::full());
  Cycle t_fresh = 0;
  EXPECT_NE(drive(fresh, phase2, t_fresh), want);
}

TEST(MotIcnCache, ConfiguredEnergiesAndLeakageMatchTheTimingModel) {
  // configure() caches the per-message energies and the leakage of the
  // state; they must be exactly the timing model's values.
  std::vector<PowerState> states = PowerState::paper_states();
  states.emplace_back("Full1024x2048", 1024, 1024, 2048, 2048);
  for (const PowerState& s : states) {
    SCOPED_TRACE(s.name());
    phys::FloorplanParams fp;
    fp.max_cores = s.total_cores();
    fp.max_banks = s.total_banks();
    const MotTimingModel model(phys::default_technology(), fp, cacti::SramBankConfig{});
    // Built in another state, then switched: the cache follows configure().
    const PowerState other("other", s.total_cores(), s.total_cores() / 2,
                           s.total_banks(), s.total_banks() / 4);
    MotInterconnect icn(model, other);
    icn.set_request_sink([](const MemRequest&, Cycle) {});
    icn.set_response_sink([](const MemResponse&, Cycle) {});
    icn.configure(s);
    EXPECT_EQ(icn.leakage_mw(), model.leakage_mw(s));

    // A write-back request and a write ack carry no line on the way
    // back; a read request carries none, its data response one.
    const CoreId c0 = s.core_of_thread(0);
    const CoreId c1 = s.core_of_thread(1);
    double expect = 0.0;
    ASSERT_TRUE(icn.try_inject_request(
        MemRequest{.id = 1, .core = c0, .bank = 0, .is_write = true}, 0));
    expect += model.request_energy_pj(s, true);
    EXPECT_EQ(icn.dynamic_energy_pj(), expect);
    ASSERT_TRUE(icn.try_inject_request(
        MemRequest{.id = 2, .core = c1, .bank = 1, .is_write = false}, 0));
    expect += model.request_energy_pj(s, false);
    EXPECT_EQ(icn.dynamic_energy_pj(), expect);
    icn.try_inject_response(MemResponse{.id = 1, .core = c0, .bank = 0, .is_write = true}, 0);
    expect += model.response_energy_pj(s, false);
    EXPECT_EQ(icn.dynamic_energy_pj(), expect);
    icn.try_inject_response(MemResponse{.id = 2, .core = c1, .bank = 1, .is_write = false}, 0);
    expect += model.response_energy_pj(s, true);
    EXPECT_EQ(icn.dynamic_energy_pj(), expect);
  }
}

}  // namespace
}  // namespace mot3d::core
