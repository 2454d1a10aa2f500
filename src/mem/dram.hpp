// Off-cluster DRAM backend: the round-robin Miss bus plus a single DRAM
// controller (Table I: one controller, 2 Gb, 4 KB page).
//
// Three latency presets from the paper:
//   * 200 ns — off-chip 2-D DDR3 SDRAM [18]
//   *  63 ns — on-chip 3-D Wide I/O SDR DRAM, JEDEC JESD229 [17]
//   *  42 ns — on-chip 3-D DRAM after Weis et al. [16]
//
// Requesters (the 32 L2 banks and, for instruction-miss line refills, the
// 16 cores — the paper's "Miss bus handles line refills in a round-robin
// manner") contend for the bus; the controller serialises bursts on one
// channel.  An optional open-page model refines the fixed latency.
#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "common/bitset.hpp"
#include "common/types.hpp"
#include "mem/memory_backend.hpp"
#include "obs/metrics.hpp"

namespace mot3d::mem {

/// DRAM latency presets used across the paper's figures.
enum class DramPreset : std::uint8_t {
  kDdr3_200ns,    ///< off-chip 2-D DRAM [18]
  kWideIo_63ns,   ///< JEDEC Wide I/O [17]
  kWeis3d_42ns,   ///< Weis 3-D DRAM [16]
};

double dram_latency_ns(DramPreset preset);
const char* dram_preset_name(DramPreset preset);

/// Miss bus + controller, cycle-driven.
///
/// Requesters enqueue (requester id, address, read/write) and — for reads —
/// receive a completion callback when the line has been fetched.  Writes
/// (dirty write-backs) are posted: they consume bus and channel bandwidth
/// but complete silently.
class DramBackend final : public MemoryBackend {
 public:
  DramBackend(const DramConfig& cfg, std::size_t num_requesters);

  void read(std::uint32_t requester, Addr addr, Cycle now,
            Callback cb) override;
  void write(std::uint32_t requester, Addr addr, Cycle now) override;

  /// Advance one cycle: run bus arbitration, start channel bursts, fire
  /// completions due at `now`.
  void tick(Cycle now) override;

  bool idle() const override;
  Cycle next_event(Cycle now) const override;

  const DramStats& stats() const override { return stats_; }
  const DramConfig& config() const override { return cfg_; }

  void set_service_observer(std::function<void(Cycle)> obs) override {
    service_obs_ = std::move(obs);
  }

  void register_metrics(obs::MetricsRegistry& m,
                        const std::string& prefix) const override {
    m.add(prefix + ".reads",
          [this] { return static_cast<double>(stats_.reads); });
    m.add(prefix + ".writes",
          [this] { return static_cast<double>(stats_.writes); });
    m.add(prefix + ".page_hits",
          [this] { return static_cast<double>(stats_.page_hits); });
    m.add(prefix + ".page_misses",
          [this] { return static_cast<double>(stats_.page_misses); });
    m.add(prefix + ".total_wait_cycles",
          [this] { return static_cast<double>(stats_.total_wait_cycles); });
    m.add(prefix + ".dynamic_energy_pj",
          [this] { return stats_.dynamic_energy_pj; });
  }

 private:
  struct Txn {
    std::uint32_t requester = 0;
    Addr addr = 0;
    bool is_write = false;
    Cycle enqueued = 0;
    Callback cb;  ///< empty for writes
  };
  struct Completion {
    Cycle due;
    std::uint32_t requester;
    Addr addr;
    Callback cb;
    bool operator>(const Completion& o) const { return due > o.due; }
  };

  /// Latency for one access honouring the page policy.
  Cycle access_latency_cycles(Addr addr);

  DramConfig cfg_;
  std::vector<std::deque<Txn>> queues_;  ///< one per requester (Miss bus RR)
  /// Bitset of non-empty queues: arbitration and next_event() visit only
  /// requesters with work, not all banks + cores (3072 at 1024 cores).
  WordBitset busy_;
  std::size_t rr_next_ = 0;
  std::size_t pending_count_ = 0;
  Cycle bus_free_at_ = 0;
  Cycle channel_free_at_ = 0;
  Addr open_page_ = kNoOpenPage;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions_;
  std::size_t in_flight_ = 0;
  DramStats stats_;
  std::function<void(Cycle)> service_obs_;  ///< null = observability off
};

}  // namespace mot3d::mem
