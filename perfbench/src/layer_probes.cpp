#include "layer_probes.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "cacti/sram_model.hpp"
#include "coherence/directory.hpp"
#include "common/rng.hpp"
#include "core/arbitration_tree.hpp"
#include "core/mot_interconnect.hpp"
#include "core/mot_timing.hpp"
#include "dram3d/stacked_dram.hpp"
#include "mem/cache.hpp"
#include "noc/noc_interconnect.hpp"
#include "phys/wire.hpp"
#include "spans.hpp"
#include "thermal/thermal_model.hpp"
#include "workload/app_profile.hpp"
#include "workload/synthetic_trace.hpp"

namespace perfbench {

namespace {

using namespace mot3d;

constexpr int kRepeats = 5;

template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over kRepeats of host ns per op; `op(i)` runs one operation.
template <typename Fn>
double median_ns_per_op(std::uint64_t ops, Fn&& op) {
  std::vector<double> ns;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) op(i);
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                 static_cast<double>(ops));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

double cache_lookup(std::uint64_t seed) {
  mem::Cache cache(mem::CacheConfig{.capacity_bytes = 64 * 1024,
                                    .line_bytes = 32,
                                    .associativity = 8,
                                    .index_shift = 0});
  for (Addr a = 0; a < 64 * 1024; a += 32) cache.insert(a, false);
  // Addresses over twice the capacity: about half the lookups hit.
  Rng rng(seed);
  std::vector<Addr> addrs(1 << 16);
  for (Addr& a : addrs) a = rng.next_below(128 * 1024);
  std::uint64_t hits = 0;
  const double ns = median_ns_per_op(200'000, [&](std::uint64_t i) {
    hits += cache.lookup(addrs[i & 0xFFFF], false).hit ? 1 : 0;
  });
  keep(hits);
  return ns;
}

/// Drives a fabric with seeded uniform traffic: each cycle every core
/// injects a request with probability `rate`, every delivered request is
/// answered by its bank from the next cycle on (a response the fabric
/// refuses is retried, at most kMaxPendingAnswers stay queued), then the
/// fabric ticks.
double fabric_tick(Interconnect& icn, std::size_t cores, std::size_t banks,
                   double rate, std::uint64_t ticks, std::uint64_t seed) {
  constexpr std::size_t kMaxPendingAnswers = 64;
  std::deque<MemResponse> answers;
  icn.set_request_sink([&answers](const MemRequest& r, Cycle) {
    if (answers.size() >= kMaxPendingAnswers) return;
    answers.push_back(MemResponse{.id = r.id, .core = r.core, .bank = r.bank,
                                  .addr = r.addr, .is_write = false,
                                  .issue_cycle = r.issue_cycle});
  });
  icn.set_response_sink([](const MemResponse&, Cycle) {});
  Rng rng(seed);
  Cycle t = 0;
  std::uint64_t id = 1;
  return median_ns_per_op(ticks, [&](std::uint64_t) {
    for (std::size_t n = answers.size(); n > 0; --n) {
      MemResponse resp = answers.front();
      answers.pop_front();
      if (!icn.try_inject_response(resp, t)) answers.push_back(resp);
    }
    for (CoreId c = 0; c < cores; ++c) {
      if (rng.next_double() < rate) {
        const MemRequest r{.id = id++, .core = c,
                           .bank = static_cast<BankId>(rng.next_below(banks)),
                           .addr = 0, .is_write = false, .issue_cycle = t};
        (void)icn.try_inject_request(r, t);
      }
    }
    icn.tick(t++);
  });
}

double arbitrate(std::uint64_t seed) {
  // The sparse entry point the MoT hot path uses: seeded candidate sets,
  // each core requesting with probability 0.3.
  core::ArbitrationTree tree(16);
  tree.configure(core::PowerState::full());
  Rng rng(seed);
  std::vector<std::vector<CoreId>> sets(1024);
  for (auto& set : sets) {
    for (CoreId c = 0; c < 16; ++c) {
      if (rng.next_bool(0.3)) set.push_back(c);
    }
  }
  std::uint64_t sink = 0;
  const double ns = median_ns_per_op(200'000, [&](std::uint64_t i) {
    const std::vector<CoreId>& set = sets[i & 1023];
    sink += tree.arbitrate_sparse(set.data(), set.size()).value_or(0);
  });
  keep(sink);
  return ns;
}

double directory(std::uint64_t seed) {
  coherence::CoherenceDirectory dir(coherence::CoherenceConfig{});
  Rng rng(seed);
  std::vector<MemRequest> reqs(1 << 14);
  for (MemRequest& r : reqs) {
    const double k = rng.next_double();
    r.kind = k < 0.55   ? ReqKind::kGetS
             : k < 0.75 ? ReqKind::kGetX
             : k < 0.90 ? ReqKind::kUpgrade
                        : ReqKind::kWriteback;
    r.core = static_cast<CoreId>(rng.next_below(16));
    r.addr = rng.next_below(4096) * 32;
  }
  std::uint64_t invals = 0;
  const double ns = median_ns_per_op(200'000, [&](std::uint64_t i) {
    const MemRequest& r = reqs[i & 0x3FFF];
    invals += dir.on_request(r, static_cast<BankId>((r.addr / 32) % 32))
                  .invalidate.size();
  });
  keep(invals);
  return ns;
}

double stacked_dram(std::uint64_t seed) {
  dram3d::StackedDram dram(dram3d::Dram3dConfig{}, 16);
  Rng rng(seed);
  Cycle t = 0;
  Addr stream = 0;
  std::uint64_t completions = 0;
  const mem::MemoryBackend::Callback cb = [&completions](std::uint32_t, Addr, Cycle) {
    ++completions;
  };
  // One access per op: reads and write-backs (4:1) with sequential runs
  // broken by random jumps, spaced by a few idle cycles so the vault
  // queues stay bounded; refresh boundaries fall inside the ticks.
  const double ns = median_ns_per_op(20'000, [&](std::uint64_t) {
    stream = rng.next_bool(0.25) ? rng.next_below(1u << 24) & ~Addr{31} : stream + 32;
    const auto requester = static_cast<std::uint32_t>(rng.next_below(16));
    if (rng.next_bool(0.8)) {
      dram.read(requester, stream, t, cb);
    } else {
      dram.write(requester, stream, t);
    }
    for (int k = 0; k < 8; ++k) dram.tick(t++);
  });
  keep(completions);
  return ns;
}

double thermal_step(std::uint64_t seed) {
  thermal::ThermalConfig cfg = thermal::ThermalConfig::from_envelope({true, 45.0, 80.0});
  thermal::ThermalModel model(cfg, phys::FloorplanParams{}, phys::default_technology());
  thermal::ThermalSources src = model.make_sources();
  Rng rng(seed);
  for (std::size_t i = 0; i < src.dynamic_w.size(); ++i) {
    src.dynamic_w[i] = 0.01 + 0.2 * rng.next_double();
    src.core_leak_ref_w[i] = 0.005 * rng.next_double();
    src.l2_leak_ref_w[i] = 0.005 * rng.next_double();
    src.icn_leak_ref_w[i] = 0.002 * rng.next_double();
  }
  model.advance(src, cfg.sample_interval_cycles);  // warm start, untimed
  const double ns = median_ns_per_op(200, [&](std::uint64_t) {
    model.advance(src, cfg.sample_interval_cycles);
  });
  keep(model.peak_c());
  return ns;
}

double trace_next(const Workload& w, std::uint64_t seed) {
  // The workload's first app, at a scale its stream cannot exhaust.
  const workload::Workload gen(workload::profile_by_name(w.cells.front().job.run.app),
                               16, 64.0, seed);
  auto trace = gen.make_trace(0);
  std::uint64_t sink = 0;
  const double ns = median_ns_per_op(300'000, [&](std::uint64_t) {
    sink += static_cast<std::uint64_t>(trace->next().kind);
  });
  keep(sink);
  return ns;
}

double hash_jobs(const Workload& w) {
  std::size_t bytes = 0;
  const double ns = median_ns_per_op(4'000, [&](std::uint64_t i) {
    bytes += sim::job_hash(w.cells[i % w.cells.size()].job).size();
  });
  keep(bytes);
  return ns;
}

}  // namespace

LayerProbeTimes run_layer_probes(const Workload& w, std::uint64_t seed) {
  LayerProbeTimes t;
  t.cache_lookup_ns = cache_lookup(seed);
  {
    const core::MotTimingModel model(phys::default_technology(),
                                     phys::FloorplanParams{},
                                     cacti::SramBankConfig{});
    core::MotInterconnect icn(model, core::PowerState::full());
    t.mot_tick_ns = fabric_tick(icn, 16, 32, 0.05, 20'000, seed + 1);
  }
  t.mot_arbitrate_ns = arbitrate(seed + 2);
  {
    const power::InterconnectPowerModel pm{phys::WireModel(phys::default_technology())};
    noc::NocInterconnect icn(noc::NocTopology::kTrueMesh3d, noc::NocConfig{}, pm);
    t.noc_tick_ns = fabric_tick(icn, 16, 32, 0.02, 2'000, seed + 3);
  }
  t.dir_ns_per_req = directory(seed + 4);
  t.dram3d_access_ns = stacked_dram(seed + 5);
  t.thermal_step_ns = thermal_step(seed + 6);
  t.trace_ns_per_op = trace_next(w, seed + 7);
  t.hash_ns = hash_jobs(w);
  return t;
}

}  // namespace perfbench
