// The per-bank arbitration tree of the 3-D MoT (paper Fig. 2(a)).
//
// A binary tree of 2-input round-robin arbitration switches merges the
// requests of up to `total_cores` cores heading for one cache bank.  Every
// cycle at most one contender wins and proceeds onto the bank's TSV bus;
// the hierarchical round-robin pointers guarantee starvation freedom with
// a worst-case wait bounded by the number of contenders.
//
// The tree's state splits three ways, so that a cluster with one tree per
// bank pays per bank only for what differs between banks:
//  * ArbitrationGating — which switches are powered.  It depends only on
//    the PowerState, so the MoT computes one map per configure and shares
//    it across every bank's tree.
//  * the round-robin bits — one priority bit per switch, the only
//    per-bank state.
//  * ArbitrationScratch — the request flags of one arbitrate_sparse call,
//    reused by every tree that arbitrates on the same thread.
// All three are heap-indexed: switch 0 is the root, the children of i
// are 2i+1 and 2i+2, and the `total_cores` leaves (the cores' request
// wires) follow the total_cores-1 switches.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "core/power_state.hpp"

namespace mot3d::core {

/// Powered switches of an arbitration tree over `total_cores` inputs.
class ArbitrationGating {
 public:
  explicit ArbitrationGating(std::size_t total_cores);

  /// A switch stays powered iff at least one core in its subtree is
  /// active.  Computed bottom-up in O(total_cores); returns the number of
  /// powered switches.
  std::size_t configure(const PowerState& state);

  bool powered(std::size_t node) const { return powered_[node] != 0; }
  std::size_t powered_switches() const { return powered_count_; }
  std::size_t total_cores() const { return total_cores_; }

 private:
  std::size_t total_cores_;
  std::vector<std::uint8_t> powered_;  ///< per switch
  std::size_t powered_count_ = 0;
};

/// arbitrate_sparse scratch: a request flag per heap node, and the touched
/// entries, which are cleared after each call so that its cost tracks the
/// candidate count, not the tree size.  Not thread-safe: one per owner
/// (a MotInterconnect, a stand-alone ArbitrationTree).
struct ArbitrationScratch {
  explicit ArbitrationScratch(std::size_t total_cores)
      : node_req(2 * total_cores - 1, 0) {}

  std::vector<std::uint8_t> node_req;
  std::vector<std::uint32_t> marked;
};

class ArbitrationTree {
 public:
  /// A stand-alone tree: owns its gating map, round-robin bits and
  /// scratch.  Every switch is powered until configure().
  explicit ArbitrationTree(std::size_t total_cores);

  /// Program the tree for `state` (gates switches whose whole subtree of
  /// cores is powered off); returns the number of powered switches.  The
  /// round-robin pointers are kept.
  std::size_t configure(const PowerState& state);

  /// Grant one requester among `requesting` (indexed by physical core id);
  /// returns the winner or nullopt when nobody requests.  Updates the
  /// round-robin pointers along the granted path only, as the hardware does.
  std::optional<CoreId> arbitrate(const std::vector<bool>& requesting);

  /// Sparse entry point: `candidates` lists the core ids requesting this
  /// cycle (no duplicates, any order).  Bit-identical to arbitrate() with
  /// exactly those bits set — request wires propagate bottom-up from the
  /// candidate leaves through powered switches, then one root-to-leaf
  /// descent evaluates the same peek decisions the recursive walk would
  /// and commits along the granted spine.  Cost is O(candidates · levels)
  /// instead of O(total_cores), which is what makes per-bank arbitration
  /// affordable at 256-1024 cores.
  std::optional<CoreId> arbitrate_sparse(const CoreId* candidates,
                                         std::size_t count) {
    return arbitrate_sparse(gating_, rr_.data(), scratch_, candidates, count);
  }

  /// The same grant for a tree kept as bare round-robin bits (`rr`, at
  /// least rr_words(gating.total_cores()) words) under a shared gating
  /// map and scratch.
  static std::optional<CoreId> arbitrate_sparse(const ArbitrationGating& gating,
                                                std::uint64_t* rr,
                                                ArbitrationScratch& scratch,
                                                const CoreId* candidates,
                                                std::size_t count);

  /// Words of round-robin bits a tree over `total_cores` inputs needs.
  static std::size_t rr_words(std::size_t total_cores) {
    return (total_cores - 1 + 63) / 64;
  }

  std::size_t total_cores() const { return gating_.total_cores(); }
  unsigned levels() const { return levels_; }
  std::size_t powered_switches() const { return gating_.powered_switches(); }

  /// Test hook: the round-robin pointer of the switch at (level, index),
  /// level 0 = root.
  unsigned preferred_input(unsigned level, std::size_t index) const;

 private:
  struct Outcome {
    bool requesting = false;
    CoreId winner = 0;
  };
  Outcome descend(unsigned level, std::size_t index,
                  const std::vector<bool>& requesting) const;
  void commit_path(unsigned level, std::size_t index,
                   const std::vector<bool>& requesting);
  static std::size_t node_index(unsigned level, std::size_t index) {
    return (std::size_t{1} << level) - 1 + index;
  }

  ArbitrationGating gating_;
  unsigned levels_;
  std::vector<std::uint64_t> rr_;
  ArbitrationScratch scratch_;
};

}  // namespace mot3d::core
