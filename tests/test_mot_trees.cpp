// Unit tests for the MoT routing and arbitration trees: full-connectivity
// resolution, the Fig. 4 user-defined/gated switch pattern, consistency
// with PowerState::remap_bank, and hierarchical round-robin fairness /
// starvation freedom, and the shared gating map against the per-subtree
// scan it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/arbitration_tree.hpp"
#include "core/power_state.hpp"
#include "core/routing_tree.hpp"
#include "core/switch.hpp"
#include "sim/scenario.hpp"

namespace mot3d::core {
namespace {

TEST(RoutingTree, FullConfigIsIdentity) {
  RoutingTree rt(32);
  rt.configure(PowerState::full());
  for (BankId b = 0; b < 32; ++b) {
    ASSERT_TRUE(rt.resolve(b).has_value());
    EXPECT_EQ(*rt.resolve(b), b);
  }
  EXPECT_EQ(rt.powered_switches(), 31u);  // all switches on
}

TEST(RoutingTree, MatchesPowerStateRemapEverywhere) {
  for (std::size_t active : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const PowerState s("p", 16, 16, 32, active);
    RoutingTree rt(32);
    rt.configure(s);
    for (BankId b = 0; b < 32; ++b) {
      ASSERT_TRUE(rt.resolve(b).has_value()) << "active=" << active << " b=" << b;
      EXPECT_EQ(*rt.resolve(b), s.remap_bank(b)) << "active=" << active << " b=" << b;
    }
  }
}

TEST(RoutingTree, Fig4SwitchPattern) {
  // 8 banks, 4 active: level 1 runs user-defined, everything else on the
  // active paths conventional, unreachable switches gated.
  const PowerState s("fig4", 4, 4, 8, 4);
  RoutingTree rt(8);
  rt.configure(s);
  // Root: conventional.
  EXPECT_EQ(static_cast<int>(rt.switch_at(0, 0).mode()),
            static_cast<int>(RouteMode::kConventional));
  // Level 1 (the paper's "second level"): user-defined, folding centre-ward.
  EXPECT_EQ(static_cast<int>(rt.switch_at(1, 0).mode()),
            static_cast<int>(RouteMode::kForcePort1));
  EXPECT_EQ(static_cast<int>(rt.switch_at(1, 1).mode()),
            static_cast<int>(RouteMode::kForcePort0));
  // Level 2: switches over gated banks are off, over active banks on.
  EXPECT_FALSE(rt.switch_at(2, 0).powered());  // banks 0,1
  EXPECT_TRUE(rt.switch_at(2, 1).powered());   // banks 2,3
  EXPECT_TRUE(rt.switch_at(2, 2).powered());   // banks 4,5
  EXPECT_FALSE(rt.switch_at(2, 3).powered());  // banks 6,7
}

TEST(RoutingTree, PoweredSwitchCountDropsWithGating) {
  RoutingTree rt(32);
  const std::size_t full = rt.configure(PowerState::full());
  const std::size_t mb8 = rt.configure(PowerState::pc16_mb8());
  EXPECT_LT(mb8, full);
  // Visited switches per level for 32 banks folded onto 8 (forced levels
  // 1 and 2 each pass through a single child): 1 + 2 + 2 + 2 + 4 = 11.
  EXPECT_EQ(mb8, 11u);
}

TEST(RoutingTree, RejectsBadShape) {
  EXPECT_THROW(RoutingTree(0), std::invalid_argument);
  EXPECT_THROW(RoutingTree(1), std::invalid_argument);
  EXPECT_THROW(RoutingTree(12), std::invalid_argument);
  RoutingTree rt(16);
  EXPECT_THROW(rt.configure(PowerState::full()), std::invalid_argument);  // 32 != 16
}

TEST(RoutingTree, OutOfRangeBankRejected) {
  RoutingTree rt(8);
  rt.configure(PowerState("p", 4, 4, 8, 8));
  EXPECT_EQ(rt.resolve(8), std::nullopt);
}

TEST(ArbitrationTree, SingleRequesterAlwaysWins) {
  ArbitrationTree at(16);
  at.configure(PowerState::full());
  std::vector<bool> req(16, false);
  req[11] = true;
  EXPECT_EQ(at.arbitrate(req), 11u);
  EXPECT_EQ(at.arbitrate(req), 11u);
}

TEST(ArbitrationTree, NobodyRequesting) {
  ArbitrationTree at(8);
  at.configure(PowerState("p", 8, 8, 32, 32));
  EXPECT_EQ(at.arbitrate(std::vector<bool>(8, false)), std::nullopt);
}

TEST(ArbitrationTree, GrantsExactlyOnePerCycle) {
  ArbitrationTree at(16);
  at.configure(PowerState::full());
  std::vector<bool> req(16, true);
  const auto w = at.arbitrate(req);
  ASSERT_TRUE(w.has_value());
  EXPECT_LT(*w, 16u);
}

TEST(ArbitrationTree, StarvationFreedomUnderFullContention) {
  // All 16 cores request every cycle; within 16 grants each core must win
  // at least once (bounded wait == round-robin fairness).
  ArbitrationTree at(16);
  at.configure(PowerState::full());
  std::vector<bool> req(16, true);
  std::set<CoreId> winners;
  for (int i = 0; i < 16; ++i) winners.insert(*at.arbitrate(req));
  EXPECT_EQ(winners.size(), 16u);
}

TEST(ArbitrationTree, FairShareUnderAsymmetricPersistence) {
  // Two persistent requesters + one intermittent: nobody starves.
  ArbitrationTree at(4);
  at.configure(PowerState("p", 4, 4, 32, 32));
  std::map<CoreId, int> grants;
  for (int round = 0; round < 300; ++round) {
    std::vector<bool> req(4, false);
    req[0] = true;
    req[1] = true;
    req[2] = (round % 3 == 0);
    const auto w = at.arbitrate(req);
    ASSERT_TRUE(w.has_value());
    ++grants[*w];
    // The winner's request is consumed; persistent ones re-request.
  }
  EXPECT_GT(grants[0], 60);
  EXPECT_GT(grants[1], 60);
  EXPECT_GT(grants[2], 30);
}

TEST(ArbitrationTree, BoundedWaitProperty) {
  // Worst-case wait for any persistent requester is <= #contenders rounds.
  ArbitrationTree at(8);
  at.configure(PowerState("p", 8, 8, 32, 32));
  std::vector<bool> req(8, true);
  std::vector<int> last_grant(8, -1);
  for (int round = 0; round < 64; ++round) {
    const CoreId w = *at.arbitrate(req);
    if (last_grant[w] >= 0) {
      EXPECT_LE(round - last_grant[w], 8);
    }
    last_grant[w] = round;
  }
}

TEST(ArbitrationTree, GatedSubtreeNeverWins) {
  ArbitrationTree at(16);
  at.configure(PowerState::pc4_mb32());  // only cores 6..9 powered
  // Requests from gated cores must not be granted (they cannot occur in a
  // correct system; the tree guards anyway because their switches are off).
  std::vector<bool> req(16, false);
  req[0] = true;   // gated
  req[7] = true;   // active
  const auto w = at.arbitrate(req);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 7u);
}

TEST(ArbitrationTree, PoweredSwitchCount) {
  ArbitrationTree at(16);
  EXPECT_EQ(at.configure(PowerState::full()), 15u);
  // PC4: cores 6..9 -> subtrees {6,7} and {8,9} plus their ancestors.
  const std::size_t pc4 = at.configure(PowerState::pc4_mb32());
  EXPECT_LT(pc4, 15u);
  EXPECT_GE(pc4, 5u);
}

TEST(ArbitrationTree, RejectsBadShape) {
  EXPECT_THROW(ArbitrationTree(1), std::invalid_argument);
  EXPECT_THROW(ArbitrationTree(6), std::invalid_argument);
}

TEST(ArbitrationTree, ConfigureKeepsRoundRobinPointers) {
  ArbitrationTree at(16);
  at.configure(PowerState::full());
  std::vector<bool> req(16, false);
  for (const CoreId c : {1, 6, 7, 9, 14}) req[c] = true;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(at.arbitrate(req).has_value());
  auto pointers = [&at] {
    std::vector<unsigned> p;
    for (unsigned l = 0; l < at.levels(); ++l) {
      for (std::size_t i = 0; i < (std::size_t{1} << l); ++i) {
        p.push_back(at.preferred_input(l, i));
      }
    }
    return p;
  };
  const std::vector<unsigned> before = pointers();
  ASSERT_NE(before, std::vector<unsigned>(15, 0u));  // some pointer moved
  at.configure(PowerState::pc4_mb32());
  EXPECT_EQ(pointers(), before);
  at.configure(PowerState::full());
  EXPECT_EQ(pointers(), before);
}

// ---- the shared gating map against the per-subtree scan ---------------------
// The oracle is the tree as it stood before one gating map was shared by
// every bank: one ArbitrationSwitch per node, each configured by scanning
// its own subtree of cores, and the recursive grant walk.

class OracleTree {
 public:
  explicit OracleTree(std::size_t total_cores)
      : total_cores_(total_cores),
        levels_(log2_exact(total_cores)),
        nodes_(total_cores - 1) {}

  std::size_t configure(const PowerState& state) {
    std::size_t powered = 0;
    for (unsigned l = 0; l < levels_; ++l) {
      const std::size_t count = std::size_t{1} << l;
      const std::size_t span = total_cores_ >> l;
      for (std::size_t i = 0; i < count; ++i) {
        bool any = false;
        for (std::size_t c = i * span; c < (i + 1) * span; ++c) {
          if (state.core_active(static_cast<CoreId>(c))) {
            any = true;
            break;
          }
        }
        nodes_[node(l, i)].set_powered(any);
        powered += any ? 1 : 0;
      }
    }
    return powered;
  }

  bool powered(std::size_t heap_index) const { return nodes_[heap_index].powered(); }

  std::optional<CoreId> arbitrate(const std::vector<bool>& requesting) {
    const Outcome out = descend(0, 0, requesting);
    if (!out.requesting) return std::nullopt;
    commit_path(0, 0, requesting);
    return out.winner;
  }

 private:
  struct Outcome {
    bool requesting = false;
    CoreId winner = 0;
  };
  static std::size_t node(unsigned level, std::size_t index) {
    return (std::size_t{1} << level) - 1 + index;
  }
  Outcome descend(unsigned level, std::size_t index,
                  const std::vector<bool>& requesting) {
    if ((total_cores_ >> level) == 1) {
      return {requesting[index], static_cast<CoreId>(index)};
    }
    ArbitrationSwitch& sw = nodes_[node(level, index)];
    if (!sw.powered()) return {false, 0};
    const Outcome left = descend(level + 1, index * 2, requesting);
    const Outcome right = descend(level + 1, index * 2 + 1, requesting);
    const std::optional<unsigned> choice = sw.peek(left.requesting, right.requesting);
    if (!choice.has_value()) return {false, 0};
    return {true, *choice == 0 ? left.winner : right.winner};
  }
  void commit_path(unsigned level, std::size_t index,
                   const std::vector<bool>& requesting) {
    if ((total_cores_ >> level) == 1) return;
    ArbitrationSwitch& sw = nodes_[node(level, index)];
    const Outcome left = descend(level + 1, index * 2, requesting);
    const Outcome right = descend(level + 1, index * 2 + 1, requesting);
    const std::optional<unsigned> choice = sw.peek(left.requesting, right.requesting);
    if (!choice.has_value()) return;
    sw.commit(*choice);
    commit_path(level + 1, index * 2 + *choice, requesting);
  }

  std::size_t total_cores_;
  unsigned levels_;
  std::vector<ArbitrationSwitch> nodes_;
};

/// Every registered power state plus the scale-out shapes, fully powered
/// and core-gated.
std::vector<PowerState> gating_states() {
  std::vector<PowerState> states = PowerState::paper_states();
  states.push_back(sim::power_state_by_name("Full256x512"));
  states.push_back(sim::power_state_by_name("Full1024x2048"));
  states.emplace_back("PC64-of-256", 256, 64, 512, 512);
  states.emplace_back("PC1-of-1024", 1024, 1, 2048, 2048);
  states.emplace_back("PC32-of-1024", 1024, 32, 2048, 128);
  return states;
}

TEST(ArbitrationGating, SharedMapMatchesPerSubtreeScan) {
  for (const PowerState& s : gating_states()) {
    const std::size_t n = s.total_cores();
    OracleTree oracle(n);
    const std::size_t want = oracle.configure(s);
    ArbitrationGating gating(n);
    EXPECT_EQ(gating.configure(s), want) << s.name();
    EXPECT_EQ(gating.powered_switches(), want) << s.name();
    for (std::size_t node = 0; node + 1 < n; ++node) {
      ASSERT_EQ(gating.powered(node), oracle.powered(node))
          << s.name() << " switch " << node;
    }
    ArbitrationTree tree(n);
    EXPECT_EQ(tree.configure(s), want) << s.name();
    EXPECT_EQ(tree.powered_switches(), want) << s.name();
  }
}

TEST(ArbitrationGating, GrantSequencesMatchOracleConfiguredTrees) {
  // Four trees in lockstep over seeded candidate sets: the oracle, a
  // stand-alone tree through arbitrate() and arbitrate_sparse(), and bare
  // round-robin bits under a shared gating map and scratch (how the MoT
  // keeps its bank trees).  Halfway through, every tree is switched to the
  // fully powered state of the same shape and back, which must keep the
  // round-robin pointers.  Gated cores request too, now and then: the
  // gating, not the caller, decides whether their wire gets through.
  std::uint64_t seed = 0x243F6A8885A308D3ull;
  auto next = [&seed] {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  for (const PowerState& s : gating_states()) {
    const std::size_t n = s.total_cores();
    const PowerState full("full", n, n, s.total_banks(), s.total_banks());
    OracleTree oracle(n);
    ArbitrationTree dense(n);
    ArbitrationTree sparse(n);
    ArbitrationGating shared(n);
    std::vector<std::uint64_t> rr(ArbitrationTree::rr_words(n), 0);
    ArbitrationScratch scratch(n);
    auto configure_all = [&](const PowerState& state) {
      oracle.configure(state);
      dense.configure(state);
      sparse.configure(state);
      shared.configure(state);
    };
    configure_all(s);
    const int rounds = n >= 1024 ? 400 : 1000;
    std::vector<bool> requesting(n, false);
    std::vector<CoreId> candidates;
    for (int round = 0; round < rounds; ++round) {
      if (round == rounds / 2) {
        configure_all(full);
        configure_all(s);
      }
      std::fill(requesting.begin(), requesting.end(), false);
      candidates.clear();
      for (CoreId c = 0; c < n; ++c) {
        const std::uint64_t odds = s.core_active(c) ? 4 : 64;
        if (next() % odds == 0) {
          requesting[c] = true;
          candidates.push_back(c);
        }
      }
      for (std::size_t i = candidates.size(); i > 1; --i) {
        std::swap(candidates[i - 1], candidates[next() % i]);
      }
      const std::optional<CoreId> want = oracle.arbitrate(requesting);
      ASSERT_EQ(dense.arbitrate(requesting), want) << s.name() << " round " << round;
      ASSERT_EQ(sparse.arbitrate_sparse(candidates.data(), candidates.size()), want)
          << s.name() << " round " << round;
      ASSERT_EQ(ArbitrationTree::arbitrate_sparse(shared, rr.data(), scratch,
                                                  candidates.data(),
                                                  candidates.size()),
                want)
          << s.name() << " round " << round;
    }
  }
}

}  // namespace
}  // namespace mot3d::core
