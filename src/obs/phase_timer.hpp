// Host-side phase attribution for `mot3d_experiments scale` reports.
//
// Timing every tick with steady_clock would dominate the hot path, so
// the timer stamps one tick in 64 and extrapolates: good enough to say
// *where* simulator wall-time goes (fabric vs L2 vs coherence vs
// workload), useless for sub-percent accounting — which is all the
// perf-trajectory baselines need.  Two things must not be multiplied by
// the extrapolation: the clock reads themselves (each lap measures what
// one costs and takes it off every span), and the cold first tick of a
// run (never the sample).  Clock reads never influence model state, so
// modeled metrics are unchanged whether timing is on or off.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>

#include "obs/obs_config.hpp"

namespace mot3d::obs {

class PhaseTimer {
 public:
  enum Phase : std::size_t {
    kWorkload = 0,
    kCoherence,
    kFabric,
    kL2,
    kDram,
    kStampCost,  ///< a lap's calibration span; not a phase, never reported
    kPhaseCount,
  };

  using clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kSampleMask = 63;  ///< time 1 tick in 64

  /// Call once per tick; true when this tick should be timed: the last
  /// of every 64.  Never the first tick of a run, which pays the cold
  /// start (every core's first fetch, first touch of lazily filled cache
  /// sets) and would be extrapolated x64 — at 1024 cores that one
  /// sample inflated the phase sum by about the run's whole wall time.
  bool should_sample() { return (ticks_++ & kSampleMask) == kSampleMask; }

  /// Charge `span` to `p`; a negative span (a lap's stamp-cost estimate
  /// exceeding a short span) counts as 0.
  void add(Phase p, clock::duration span) {
    ns_[p] += std::max<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(span).count(), 0);
  }

  /// Stamps the consecutive phases of one tick.  Built from a null timer
  /// (an unsampled tick) it is inert and never reads the clock.  Each
  /// span between stamps includes one stamp (a clock read plus end()'s
  /// bookkeeping), which the unsampled ticks never pay, so the lap opens
  /// by timing one empty phase through end() itself and takes that span
  /// off every later one.  Measuring per lap, not once per process,
  /// follows the process across CPUs: a clock read cost 33 ns on one
  /// vCPU and 43 ns on another of the same 4-vCPU host.
  class Lap {
   public:
    explicit Lap(PhaseTimer* timer) : timer_(timer) {
      if (timer_ == nullptr) return;
      last_ = clock::now();
      end(kStampCost);
      const clock::time_point first = last_;
      end(kStampCost);
      stamp_ = last_ - first;
    }
    /// Charge the time since the previous stamp, less one stamp, to `p`.
    void end(Phase p) {
      if (timer_ == nullptr) return;
      const clock::time_point now = clock::now();
      timer_->add(p, now - last_ - stamp_);
      last_ = now;
    }

   private:
    PhaseTimer* timer_;
    clock::time_point last_{};
    clock::duration stamp_{};
  };

  /// Extrapolated totals (sampled nanoseconds x 64).
  PhaseSeconds totals() const {
    PhaseSeconds t;
    t.valid = true;
    const double scale = static_cast<double>(kSampleMask + 1) * 1e-9;
    t.workload = static_cast<double>(ns_[kWorkload]) * scale;
    t.coherence = static_cast<double>(ns_[kCoherence]) * scale;
    t.fabric = static_cast<double>(ns_[kFabric]) * scale;
    t.l2 = static_cast<double>(ns_[kL2]) * scale;
    t.dram = static_cast<double>(ns_[kDram]) * scale;
    return t;
  }

 private:
  std::uint64_t ticks_ = 0;
  std::array<std::int64_t, kPhaseCount> ns_{};
};

}  // namespace mot3d::obs
