// Unit tests for the packet-switched baselines: reachability on all three
// topologies, zero-load latency ordering, wormhole integrity, bus
// round-robin sharing, back-pressure, energy/stat accounting, a pinned
// replay of saturating seeded traffic (the arbitration order itself), and
// the next-event contract checked by a gated-vs-dense differential.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "noc/noc_interconnect.hpp"

namespace mot3d::noc {
namespace {

power::InterconnectPowerModel power_model() {
  return power::InterconnectPowerModel(phys::WireModel(phys::default_technology()));
}

class NocTest : public ::testing::TestWithParam<NocTopology> {
 protected:
  NocConfig cfg;
  std::vector<std::pair<MemRequest, Cycle>> requests;
  std::vector<std::pair<MemResponse, Cycle>> responses;

  std::unique_ptr<NocInterconnect> make() {
    auto icn = make_noc(GetParam(), cfg, power_model());
    icn->set_request_sink(
        [this](const MemRequest& r, Cycle t) { requests.emplace_back(r, t); });
    icn->set_response_sink(
        [this](const MemResponse& r, Cycle t) { responses.emplace_back(r, t); });
    return icn;
  }

  static MemRequest req(CoreId c, BankId b, bool write = false,
                        std::uint64_t id = 1) {
    return MemRequest{.id = id, .core = c, .bank = b, .addr = 0,
                      .is_write = write, .issue_cycle = 0};
  }
};

TEST_P(NocTest, EveryCoreReachesEveryBank) {
  auto icn = make();
  std::uint64_t id = 1;
  Cycle t = 0;  // monotonic: bus pacing state is in absolute time
  for (CoreId c = 0; c < 16; ++c) {
    for (BankId b = 0; b < 32; ++b) {
      requests.clear();
      ASSERT_TRUE(icn->try_inject_request(req(c, b, false, id++), t));
      const Cycle deadline = t + 500;
      for (; t < deadline && requests.empty(); ++t) icn->tick(t);
      ASSERT_EQ(requests.size(), 1u) << "core " << c << " bank " << b;
      EXPECT_EQ(requests[0].first.bank, b);
      EXPECT_EQ(requests[0].first.core, c);
    }
  }
}

TEST_P(NocTest, EveryBankReachesEveryCore) {
  auto icn = make();
  std::uint64_t id = 1;
  Cycle t = 0;
  for (BankId b = 0; b < 32; b += 5) {
    for (CoreId c = 0; c < 16; c += 3) {
      responses.clear();
      MemResponse resp{.id = id++, .core = c, .bank = b, .addr = 0,
                       .is_write = false, .l2_hit = true, .issue_cycle = t};
      ASSERT_TRUE(icn->try_inject_response(resp, t));
      const Cycle deadline = t + 500;
      for (; t < deadline && responses.empty(); ++t) icn->tick(t);
      ASSERT_EQ(responses.size(), 1u) << "bank " << b << " core " << c;
      EXPECT_EQ(responses[0].first.core, c);
    }
  }
}

TEST_P(NocTest, WritePacketsCarryTheLine) {
  // A write-back is 1 + line_flits flits: its serialisation must make it
  // slower than a 1-flit read request over the same path.
  auto icn = make();
  ASSERT_TRUE(icn->try_inject_request(req(0, 31, false, 1), 0));
  for (Cycle t = 0; t < 500 && requests.empty(); ++t) icn->tick(t);
  ASSERT_EQ(requests.size(), 1u);
  const Cycle read_lat = requests[0].second;

  requests.clear();
  auto icn2 = make();
  ASSERT_TRUE(icn2->try_inject_request(req(0, 31, true, 2), 0));
  for (Cycle t = 0; t < 500 && requests.empty(); ++t) icn2->tick(t);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_GE(requests[0].second, read_lat + cfg.line_flits());
}

TEST_P(NocTest, ManyOutstandingAllComplete) {
  // 16 cores each fire at 8 different banks in sequence — conservation.
  auto icn = make();
  std::uint64_t id = 1;
  std::size_t injected = 0;
  for (int round = 0; round < 8; ++round) {
    for (CoreId c = 0; c < 16; ++c) {
      const BankId b = static_cast<BankId>((c * 7 + round * 5) % 32);
      if (icn->try_inject_request(req(c, b, (round % 2) == 0, id++), 0)) {
        ++injected;
      }
    }
  }
  for (Cycle t = 0; t < 5000 && !icn->idle(); ++t) icn->tick(t);
  EXPECT_TRUE(icn->idle());
  EXPECT_EQ(requests.size(), injected);
}

TEST_P(NocTest, EnergyAndStatsAccumulate) {
  auto icn = make();
  icn->try_inject_request(req(0, 31), 0);
  for (Cycle t = 0; t < 500 && !icn->idle(); ++t) icn->tick(t);
  EXPECT_GT(icn->dynamic_energy_pj(), 0.0);
  EXPECT_GT(icn->leakage_mw(), 0.0);
  EXPECT_EQ(icn->stats().requests_injected, 1u);
  EXPECT_EQ(icn->stats().requests_delivered, 1u);
  EXPECT_GT(icn->network().transport_stats().flit_router_traversals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, NocTest,
                         ::testing::Values(NocTopology::kTrueMesh3d,
                                           NocTopology::kHybridBusMesh,
                                           NocTopology::kHybridBusTree),
                         [](const auto& info) {
                           switch (info.param) {
                             case NocTopology::kTrueMesh3d: return "TrueMesh3d";
                             case NocTopology::kHybridBusMesh: return "BusMesh";
                             case NocTopology::kHybridBusTree: return "BusTree";
                           }
                           return "unknown";
                         });

class NocStressTest : public ::testing::TestWithParam<NocTopology> {};

TEST_P(NocStressTest, BidirectionalHeavyTrafficDrains) {
  // Protocol-deadlock regression: saturate the fabric with multi-flit
  // request worms (write-backs) in one direction while every bank pumps
  // multi-flit response worms the other way.  Without per-class virtual
  // networks this wedges (a response worm holding a TSV bus waits on a
  // mesh link held by a request worm that waits on that bus).
  NocConfig cfg;
  auto icn = make_noc(GetParam(), cfg, power_model());
  std::size_t req_seen = 0, resp_seen = 0;
  icn->set_request_sink([&](const MemRequest&, Cycle) { ++req_seen; });
  icn->set_response_sink([&](const MemResponse&, Cycle) { ++resp_seen; });

  std::uint64_t id = 1;
  std::size_t req_in = 0, resp_in = 0;
  Cycle t = 0;
  for (int round = 0; round < 40; ++round) {
    for (CoreId c = 0; c < 16; ++c) {
      MemRequest r{.id = id++, .core = c,
                   .bank = static_cast<BankId>((c * 3 + round) % 32), .addr = 0,
                   .is_write = true, .issue_cycle = t};
      if (icn->try_inject_request(r, t)) ++req_in;
    }
    for (BankId b = 0; b < 32; ++b) {
      MemResponse resp{.id = id++, .core = static_cast<CoreId>((b + round) % 16),
                       .bank = b, .addr = 0, .is_write = false, .l2_hit = true,
                       .issue_cycle = t};
      if (icn->try_inject_response(resp, t)) ++resp_in;
    }
    for (int i = 0; i < 8; ++i) icn->tick(t++);
  }
  for (; t < 300000 && !icn->idle(); ++t) icn->tick(t);
  EXPECT_TRUE(icn->idle()) << "fabric wedged: " << req_seen << "/" << req_in
                           << " requests, " << resp_seen << "/" << resp_in
                           << " responses delivered";
  EXPECT_EQ(req_seen, req_in);
  EXPECT_EQ(resp_seen, resp_in);
}

INSTANTIATE_TEST_SUITE_P(Topologies, NocStressTest,
                         ::testing::Values(NocTopology::kTrueMesh3d,
                                           NocTopology::kHybridBusMesh,
                                           NocTopology::kHybridBusTree),
                         [](const auto& info) {
                           switch (info.param) {
                             case NocTopology::kTrueMesh3d: return "TrueMesh3d";
                             case NocTopology::kHybridBusMesh: return "BusMesh";
                             case NocTopology::kHybridBusTree: return "BusTree";
                           }
                           return "unknown";
                         });

TEST(NocOrdering, BusMeshBeatsTrueMeshAtZeroLoad) {
  // The hybrid's single bus hop replaces two mesh hops vertically (ref [2]).
  NocConfig cfg;
  const auto pm = power_model();
  Cycle mesh_lat = 0, busmesh_lat = 0;
  for (int which = 0; which < 2; ++which) {
    auto icn = make_noc(which == 0 ? NocTopology::kTrueMesh3d
                                   : NocTopology::kHybridBusMesh,
                        cfg, pm);
    Cycle got = 0;
    icn->set_request_sink([&](const MemRequest&, Cycle t) { got = t; });
    // Core 0 (corner) to bank 31 (opposite corner, top tier): worst case.
    MemRequest r{.id = 1, .core = 0, .bank = 31, .addr = 0, .is_write = false,
                 .issue_cycle = 0};
    icn->try_inject_request(r, 0);
    for (Cycle t = 0; t < 500 && got == 0; ++t) icn->tick(t);
    (which == 0 ? mesh_lat : busmesh_lat) = got;
  }
  EXPECT_GT(mesh_lat, 0u);
  EXPECT_GT(busmesh_lat, 0u);
  EXPECT_LT(busmesh_lat, mesh_lat);
}

TEST(NocOrdering, BusTreeSaturatesUnderLoad) {
  // Hammer all banks behind one quadrant bus: the Bus-Tree must show far
  // worse aggregate completion time than Bus-Mesh (the paper's Fig. 6
  // explanation: "increased vertical bus accesses ... offset the benefit").
  NocConfig cfg;
  const auto pm = power_model();
  auto run = [&](NocTopology topo) {
    auto icn = make_noc(topo, cfg, pm);
    std::size_t delivered = 0;
    icn->set_response_sink([&](const MemResponse&, Cycle) { ++delivered; });
    std::uint64_t id = 1;
    // Uniform response traffic: every bank answers 8 cores.  The Bus-Mesh
    // spreads this over 16 pillar buses (2 banks each); the Bus-Tree
    // funnels 8 banks through each of its 4 buses.
    for (int round = 0; round < 8; ++round) {
      for (BankId b = 0; b < 32; ++b) {
        MemResponse resp{.id = id++,
                         .core = static_cast<CoreId>((b + round) % 16),
                         .bank = b, .addr = 0, .is_write = false,
                         .l2_hit = true, .issue_cycle = 0};
        icn->try_inject_response(resp, 0);
      }
    }
    Cycle t = 0;
    for (; t < 50000 && !icn->idle(); ++t) icn->tick(t);
    EXPECT_EQ(delivered, 256u);
    return t;
  };
  const Cycle tree_time = run(NocTopology::kHybridBusTree);
  const Cycle mesh_time = run(NocTopology::kHybridBusMesh);
  EXPECT_GT(tree_time, mesh_time * 3 / 2);
}

// ---- seeded traffic: pinned replay and gated-vs-dense differential ---------

NocNetwork build_network(NocTopology topo, const NocConfig& cfg) {
  switch (topo) {
    case NocTopology::kTrueMesh3d: return build_true_mesh_3d(cfg);
    case NocTopology::kHybridBusMesh: return build_hybrid_bus_mesh(cfg);
    case NocTopology::kHybridBusTree: return build_hybrid_bus_tree(cfg);
  }
  return build_true_mesh_3d(cfg);
}

/// Seeded mixed read/write traffic.  Each offered cycle, every endpoint
/// tries one packet with probability `rate`: a core sends a read (1 flit)
/// or write-back (1 + line) request to a random bank, a bank sends a read
/// (1 + line) or write-ack (1 flit) response to a random core.
class SeededTraffic {
 public:
  SeededTraffic(const NocConfig& cfg, std::uint64_t seed) : cfg_(cfg), rng_(seed) {}

  /// Offer this cycle's packets to `net`; returns one accept bit per try.
  std::vector<bool> offer(NocNetwork& net, Cycle now, double rate) {
    std::vector<bool> accepted;
    for (NodeId e = 0; e < cfg_.num_endpoints(); ++e) {
      if (!rng_.next_bool(rate)) continue;
      const bool from_core = e < cfg_.num_cores;
      const bool write = rng_.next_bool(0.4);
      Packet p;
      p.id = next_id_++;
      p.kind = from_core ? PacketKind::kRequest : PacketKind::kResponse;
      p.src = e;
      p.dst = from_core ? static_cast<NodeId>(cfg_.num_cores +
                                              rng_.next_below(cfg_.num_banks))
                        : static_cast<NodeId>(rng_.next_below(cfg_.num_cores));
      p.length_flits = 1 + ((from_core == write) ? cfg_.line_flits() : 0);
      p.created = now;
      accepted.push_back(net.try_inject(p, now));
    }
    return accepted;
  }

 private:
  NocConfig cfg_;
  Rng rng_;
  PacketId next_id_ = 1;
};

struct DeliveryLog {
  std::vector<std::tuple<PacketKind, PacketId, Cycle>> seq;
  void attach(NocNetwork& net) {
    net.set_delivery([this](const Packet& p, Cycle now) {
      seq.emplace_back(p.kind, p.id, now);
    });
  }
};

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

std::uint64_t delivery_hash(const DeliveryLog& log) {
  std::uint64_t h = kFnvBasis;
  for (const auto& [kind, id, cycle] : log.seq) {
    h = fnv1a(h, static_cast<std::uint64_t>(kind));
    h = fnv1a(h, id);
    h = fnv1a(h, cycle);
  }
  return h;
}

std::uint64_t latency_hash(const Histogram& hist) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < hist.num_buckets(); ++i) h = fnv1a(h, hist.bucket_count(i));
  h = fnv1a(h, hist.overflow());
  h = fnv1a(h, hist.count());
  h = fnv1a(h, hist.min());
  return fnv1a(h, hist.max());
}

std::uint32_t throttled_router(const NocNetwork& net) {
  return static_cast<std::uint32_t>(5 % net.num_routers());
}

struct ReplayPin {
  NocTopology topo;
  std::uint64_t delivery_hash;
  Cycle last_delivery;
  std::uint64_t packets_delivered;
  std::uint64_t flit_router_traversals;
  std::uint64_t flit_bus_transfers;
  double flit_link_mm;
  std::uint64_t latency_hash;
};

TEST(NocReplay, SaturatingSeededTrafficMatchesPinnedArbitration) {
  // Any change to switch/bus arbitration, VC alternation, wormhole locks,
  // back-pressure or fault-throttle pacing moves these numbers.  A change
  // that only makes the fabric cheaper to simulate must not.
  constexpr Cycle kOffered = 2000;
  constexpr Cycle kThrottleAt = 300;
  const ReplayPin pins[] = {
      {NocTopology::kTrueMesh3d, 0x64a3769cc77558f3ULL, 4060, 5947, 57719, 0,
       37829.250000003201, 0xfb3436e27faf358cULL},
      {NocTopology::kHybridBusMesh, 0x6047fa5d69411e33ULL, 6160, 3906, 23939, 6834,
       22139.810000003868, 0x83288d653dcf46e9ULL},
      {NocTopology::kHybridBusTree, 0x29a36ff762944990ULL, 7908, 3070, 12422, 4942,
       11788.680000002012, 0xc7ee496779d33146ULL},
  };
  for (const ReplayPin& pin : pins) {
    SCOPED_TRACE(topology_name(pin.topo));
    const NocConfig cfg;
    NocNetwork net = build_network(pin.topo, cfg);
    DeliveryLog log;
    log.attach(net);
    SeededTraffic traffic(cfg, 1234);
    std::size_t accepted = 0;
    Cycle t = 0;
    for (; t < kOffered; ++t) {
      if (t == kThrottleAt) net.set_router_throttle(throttled_router(net), 3);
      for (bool ok : traffic.offer(net, t, 0.3)) accepted += ok ? 1 : 0;
      net.tick(t);
    }
    for (; t < 400000 && !net.idle(); ++t) net.tick(t);
    ASSERT_TRUE(net.idle());
    ASSERT_EQ(log.seq.size(), accepted);

    const NocTransportStats& s = net.transport_stats();
    EXPECT_EQ(delivery_hash(log), pin.delivery_hash);
    EXPECT_EQ(std::get<2>(log.seq.back()), pin.last_delivery);
    EXPECT_EQ(s.packets_delivered, pin.packets_delivered);
    EXPECT_EQ(s.flit_router_traversals, pin.flit_router_traversals);
    EXPECT_EQ(s.flit_bus_transfers, pin.flit_bus_transfers);
    EXPECT_EQ(s.flit_link_mm, pin.flit_link_mm);  // same summation order
    EXPECT_EQ(latency_hash(s.packet_latency), pin.latency_hash);
  }
}

class NocGatedDifferential
    : public ::testing::TestWithParam<std::tuple<NocTopology, bool>> {};

TEST_P(NocGatedDifferential, TickingOnlyAtNextEventMatchesDenseTicking) {
  // The next-event contract at unit level: a network ticked only when
  // next_event(now) <= now must deliver the same packets at the same
  // cycles, with the same transport stats, as one ticked every cycle.
  // Traffic comes in bursts (saturating, then sparse, then none) so the
  // gated network both runs back-to-back and skips idle stretches.
  const auto [topo, throttle] = GetParam();
  const NocConfig cfg;
  NocNetwork dense = build_network(topo, cfg);
  NocNetwork gated = build_network(topo, cfg);
  DeliveryLog dense_log, gated_log;
  dense_log.attach(dense);
  gated_log.attach(gated);
  SeededTraffic dense_traffic(cfg, 99), gated_traffic(cfg, 99);
  if (throttle) {
    dense.set_router_throttle(throttled_router(dense), 3);
    gated.set_router_throttle(throttled_router(gated), 3);
  }

  constexpr Cycle kOffered = 3000;
  std::size_t gated_ticks = 0;
  Cycle t = 0;
  for (; t < 400000 && (t < kOffered || !dense.idle() || !gated.idle()); ++t) {
    if (t < kOffered) {
      const Cycle phase = (t / 250) % 3;
      const double rate = phase == 0 ? 0.3 : phase == 1 ? 0.01 : 0.0;
      ASSERT_EQ(dense_traffic.offer(dense, t, rate), gated_traffic.offer(gated, t, rate))
          << "cycle " << t;
    }
    dense.tick(t);
    if (gated.next_event(t) <= t) {
      gated.tick(t);
      ++gated_ticks;
    }
  }
  ASSERT_TRUE(dense.idle());
  ASSERT_TRUE(gated.idle());
  EXPECT_LT(gated_ticks, t);  // the gate really skipped cycles
  EXPECT_GT(dense_log.seq.size(), 1000u);
  EXPECT_EQ(dense_log.seq, gated_log.seq);

  const NocTransportStats& d = dense.transport_stats();
  const NocTransportStats& g = gated.transport_stats();
  EXPECT_EQ(d.packets_delivered, g.packets_delivered);
  EXPECT_EQ(d.flit_router_traversals, g.flit_router_traversals);
  EXPECT_EQ(d.flit_bus_transfers, g.flit_bus_transfers);
  EXPECT_EQ(d.flit_link_mm, g.flit_link_mm);
  EXPECT_EQ(latency_hash(d.packet_latency), latency_hash(g.packet_latency));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NocGatedDifferential,
    ::testing::Combine(::testing::Values(NocTopology::kTrueMesh3d,
                                         NocTopology::kHybridBusMesh,
                                         NocTopology::kHybridBusTree),
                       ::testing::Bool()),
    [](const auto& info) {
      const char* topo = "unknown";
      switch (std::get<0>(info.param)) {
        case NocTopology::kTrueMesh3d: topo = "TrueMesh3d"; break;
        case NocTopology::kHybridBusMesh: topo = "BusMesh"; break;
        case NocTopology::kHybridBusTree: topo = "BusTree"; break;
      }
      return std::string(topo) + (std::get<1>(info.param) ? "Throttled" : "Healthy");
    });

}  // namespace
}  // namespace mot3d::noc
