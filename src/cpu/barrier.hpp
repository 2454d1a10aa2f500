// Cluster-wide barrier synchronisation (SPLASH-2 style spin barriers).
//
// Cores arriving at barrier `id` spin (burning spin power, see
// power::CorePowerParams::spin_fraction) until every participating core
// has arrived.  Barrier ids are dense and monotonically increasing within
// a run.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mot3d::cpu {

class BarrierController {
 public:
  explicit BarrierController(std::size_t participants = 0)
      : participants_(participants) {}

  void set_participants(std::size_t n) { participants_ = n; }
  std::size_t participants() const { return participants_; }

  /// Register one arrival at barrier `id` during cycle `now`; the last
  /// participant's arrival releases it and dates the release.
  void arrive(std::uint32_t id, Cycle now = 0) {
    if (arrivals_.size() <= id) {
      arrivals_.resize(id + 1, 0);
      release_cycle_.resize(id + 1, kNeverCycle);
    }
    if (++arrivals_[id] == participants_) release_cycle_[id] = now;
  }

  /// True once all participants have arrived at barrier `id`.
  bool released(std::uint32_t id) const {
    return id < arrivals_.size() && arrivals_[id] >= participants_;
  }

  /// Cycle of the releasing arrival (kNeverCycle while unreleased).  A
  /// waiter ticked after the releasing core in that cycle sees the release
  /// at once, one ticked before it a cycle later: no waiter spins past
  /// release_cycle(id).
  Cycle release_cycle(std::uint32_t id) const {
    return id < release_cycle_.size() ? release_cycle_[id] : kNeverCycle;
  }

  /// Arrival count (diagnostics / tests).
  std::size_t arrivals(std::uint32_t id) const {
    return id < arrivals_.size() ? arrivals_[id] : 0;
  }

 private:
  std::size_t participants_;
  std::vector<std::size_t> arrivals_;
  std::vector<Cycle> release_cycle_;
};

}  // namespace mot3d::cpu
