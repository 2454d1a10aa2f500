#include "core/arbitration_tree.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mot3d::core {

namespace {

// ArbitrationSwitch's round-robin rule on a packed priority bit (set =
// input 1 preferred): with both inputs requesting the preferred one wins,
// and a grant through the switch makes the other input preferred.
unsigned preferred(const std::uint64_t* rr, std::size_t node) {
  return static_cast<unsigned>((rr[node >> 6] >> (node & 63)) & 1);
}

// Both are branch-free, as ArbitrationSwitch's `prefer_ = 1 - winner` is:
// the winner is data-dependent.
unsigned choose(const std::uint64_t* rr, std::size_t node, bool req0, bool req1) {
  const unsigned pref = preferred(rr, node);
  return (req0 && req1) ? pref : static_cast<unsigned>(!req0);
}

void commit(std::uint64_t* rr, std::size_t node, unsigned winner) {
  const unsigned shift = node & 63;
  std::uint64_t& word = rr[node >> 6];
  word = (word & ~(std::uint64_t{1} << shift)) | (std::uint64_t{winner ^ 1u} << shift);
}

}  // namespace

ArbitrationGating::ArbitrationGating(std::size_t total_cores)
    : total_cores_(total_cores) {
  if (!is_pow2(total_cores) || total_cores < 2) {
    throw std::invalid_argument("arbitration tree needs a power-of-two >= 2 inputs");
  }
  powered_.assign(total_cores - 1, 1);
  powered_count_ = total_cores - 1;
}

std::size_t ArbitrationGating::configure(const PowerState& state) {
  if (state.total_cores() != total_cores_) {
    throw std::invalid_argument("power state core count mismatch");
  }
  // The lowest switches see two cores each; every switch above is powered
  // iff one of its children is.
  const std::size_t first_low = total_cores_ / 2 - 1;
  for (std::size_t k = 0; k < total_cores_ / 2; ++k) {
    powered_[first_low + k] =
        (state.core_active(static_cast<CoreId>(2 * k)) ||
         state.core_active(static_cast<CoreId>(2 * k + 1)))
            ? 1
            : 0;
  }
  for (std::size_t i = first_low; i-- > 0;) {
    powered_[i] = powered_[2 * i + 1] | powered_[2 * i + 2];
  }
  powered_count_ = static_cast<std::size_t>(
      std::count(powered_.begin(), powered_.end(), std::uint8_t{1}));
  return powered_count_;
}

ArbitrationTree::ArbitrationTree(std::size_t total_cores)
    : gating_(total_cores),
      levels_(log2_exact(total_cores)),
      rr_(rr_words(total_cores), 0),
      scratch_(total_cores) {}

std::size_t ArbitrationTree::configure(const PowerState& state) {
  return gating_.configure(state);
}

unsigned ArbitrationTree::preferred_input(unsigned level, std::size_t index) const {
  return preferred(rr_.data(), node_index(level, index));
}

ArbitrationTree::Outcome ArbitrationTree::descend(
    unsigned level, std::size_t index, const std::vector<bool>& requesting) const {
  if (level == levels_) {
    // Virtual leaf: the core's request wire.
    const bool req = index < requesting.size() && requesting[index];
    return {req, static_cast<CoreId>(index)};
  }
  const std::size_t node = node_index(level, index);
  if (!gating_.powered(node)) return {false, 0};

  const Outcome left = descend(level + 1, index * 2, requesting);
  const Outcome right = descend(level + 1, index * 2 + 1, requesting);
  if (!left.requesting && !right.requesting) return {false, 0};
  const unsigned choice = choose(rr_.data(), node, left.requesting, right.requesting);
  return {true, choice == 0 ? left.winner : right.winner};
}

void ArbitrationTree::commit_path(unsigned level, std::size_t index,
                                  const std::vector<bool>& requesting) {
  if (level == levels_) return;
  const std::size_t node = node_index(level, index);
  const Outcome left = descend(level + 1, index * 2, requesting);
  const Outcome right = descend(level + 1, index * 2 + 1, requesting);
  if (!left.requesting && !right.requesting) return;
  const unsigned choice = choose(rr_.data(), node, left.requesting, right.requesting);
  // Round-robin priority rotates only along the granted spine; switches in
  // losing subtrees keep their pointers — this is what bounds any core's
  // wait by the number of contenders.
  commit(rr_.data(), node, choice);
  commit_path(level + 1, index * 2 + choice, requesting);
}

std::optional<CoreId> ArbitrationTree::arbitrate(const std::vector<bool>& requesting) {
  const Outcome out = descend(0, 0, requesting);
  if (!out.requesting) return std::nullopt;
  commit_path(0, 0, requesting);
  return out.winner;
}

std::optional<CoreId> ArbitrationTree::arbitrate_sparse(
    const ArbitrationGating& gating, std::uint64_t* rr, ArbitrationScratch& scratch,
    const CoreId* candidates, std::size_t count) {
  const std::size_t first_leaf = gating.total_cores() - 1;
  std::vector<std::uint8_t>& node_req = scratch.node_req;
  std::vector<std::uint32_t>& marked = scratch.marked;
  // Phase 1: raise each candidate's request wire and propagate it upward
  // through powered switches.  A node's flag ends up true exactly when the
  // recursive descend() would report Outcome.requesting for it: the node is
  // powered and some candidate leaf reaches it through powered switches.
  for (std::size_t k = 0; k < count; ++k) {
    const CoreId c = candidates[k];
    assert(c < gating.total_cores());
    std::size_t idx = first_leaf + c;
    if (node_req[idx]) continue;
    node_req[idx] = 1;
    marked.push_back(static_cast<std::uint32_t>(idx));
    while (idx != 0) {
      idx = (idx - 1) / 2;
      if (node_req[idx]) break;           // path already raised
      if (!gating.powered(idx)) break;    // gated subtree blocks the wire
      node_req[idx] = 1;
      marked.push_back(static_cast<std::uint32_t>(idx));
    }
  }

  std::optional<CoreId> winner;
  if (node_req[0]) {
    // Phase 2: one root-to-leaf descent.  Each choice sees the same child
    // request flags the full recursive walk computes, so the round-robin
    // choices — and the committed spine — are identical.
    std::size_t idx = 0;
    while (idx < first_leaf) {
      const std::size_t l = idx * 2 + 1;
      const std::size_t r = idx * 2 + 2;
      assert(node_req[l] || node_req[r]);
      const unsigned choice = choose(rr, idx, node_req[l] != 0, node_req[r] != 0);
      commit(rr, idx, choice);
      idx = (choice == 0) ? l : r;
    }
    winner = static_cast<CoreId>(idx - first_leaf);
  }

  for (const std::uint32_t m : marked) node_req[m] = 0;
  marked.clear();
  return winner;
}

}  // namespace mot3d::core
