// mot3d_perfbench: the repository benchmark (see perfbench/README.md).
//
//   mot3d_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--digests <dir>] [--source-rev <rev>]
//                   [--passes <n>]
//   mot3d_perfbench --workload <name> --seed <n> --pin       (print pin lines)
//   mot3d_perfbench --workload <name> --seed <n> --dump      (print the grid)
//   mot3d_perfbench --list-metrics
//
// A run repeats passes until --seconds have elapsed (at least three).  A
// pass runs every cell of the workload directly (make_run_config, the
// Cluster constructor, Cluster::run, run_metrics_json), then serves the
// workload's request stream through a fresh in-process SweepService (one
// cold run_batch, then one run_batch per warm request).  --trace 0 runs
// untraced passes only (plain steady_clock reads around each call) and
// reports the end-to-end metrics as medians over passes (the warm latency
// percentiles as means of the per-pass percentiles); --trace 1
// alternates untraced and traced passes (the simulator's phase timer and
// the span log on), runs the standalone layer probes, and reports the
// per-layer metrics.  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Exit codes: 0 every run/job correct; 1 a run threw or its modeled output
// mismatched (pinned digest, pass-to-pass, or service payload); 2 usage.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cluster/cluster.hpp"
#include "common/sha256.hpp"
#include "layer_probes.hpp"
#include "oracle.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep_service.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mot3d::cluster::Fabric;

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPairs = 2;

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"sim_cycles_per_s", "cycles/s"},
      {"sim_instr_per_s", "instr/s"},
      {"peak_rss_mb", "MB"},
      {"service_cold_s", "s"},
      {"service_warm_req_p50_us", "us"},
      {"service_warm_req_p90_us", "us"},
      {"service_jobs_per_s", "jobs/s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"cluster.ctor_s", "s"},
      {"cluster.unattributed_s", "s"},
      {"cluster.sim_cycles", "count"},
      {"cluster.host_ns_per_sim_cycle", "ns"},
      {"cpu.host_s", "s"},
      {"cpu.instructions", "count"},
      {"cpu.stall_cycles", "count"},
      {"workload.trace_ns_per_op", "ns"},
      {"coherence.host_s", "s"},
      {"coherence.invalidations", "count"},
      {"coherence.inv_acks", "count"},
      {"coherence.dir_ns_per_req", "ns"},
      {"mot.host_s", "s"},
      {"mot.requests_delivered", "count"},
      {"mot.arb_wait_cycles", "count"},
      {"mot.tick_ns", "ns"},
      {"mot.arbitrate_ns", "ns"},
      {"noc.host_share", "ratio"},
      {"noc.requests_delivered", "count"},
      {"noc.tick_ns", "ns"},
      {"fabric.host_s", "s"},
      {"fabric.host_us_per_request", "us"},
      {"l2.host_s", "s"},
      {"l2.accesses", "count"},
      {"l2.hit_ratio", "ratio"},
      {"l2.bank_conflict_cycles", "count"},
      {"dram.host_s", "s"},
      {"dram.accesses", "count"},
      {"cache.lookup_ns", "ns"},
      {"dram3d.row_hit_ratio", "ratio"},
      {"dram3d.refreshes", "count"},
      {"dram3d.remaps", "count"},
      {"dram3d.access_ns", "ns"},
      {"thermal.samples", "count"},
      {"thermal.throttle_events", "count"},
      {"thermal.step_ns", "ns"},
      {"sim.serialise_s", "s"},
      {"service.ctor_s", "s"},
      {"service.hash_ns", "ns"},
      {"service.hit_ratio", "ratio"},
      {"service.computed", "count"},
      {"service.cache_bytes", "bytes"},
      {"service.warm_s", "s"},
      {"obs.trace_overhead", "ratio"},
  };
  return defs;
}

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string digests_dir;
  std::string source_rev = "unknown";
  std::size_t passes = 0;  ///< 0 = as many as --seconds allows
  bool pin = false;
  bool dump = false;
  bool list_metrics = false;
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "error: " << msg << "\n"
            << "usage: mot3d_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--digests <dir>] [--source-rev <rev>] [--passes <n>]\n"
            << "       mot3d_perfbench --workload <name> --seed <n> --pin|--dump\n"
            << "       mot3d_perfbench --list-metrics\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    if (v.empty() || v[0] == '-') throw std::invalid_argument(v);
    const std::uint64_t n = std::stoull(v, &pos);
    if (pos == v.size()) return n;
  } catch (const std::exception&) {
  }
  usage("malformed value for " + flag + ": '" + v + "'");
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value());
    } else if (flag == "--seconds") {
      const std::string v = value();
      try {
        a.seconds = std::stod(v);
      } catch (const std::exception&) {
        usage("malformed value for --seconds: '" + v + "'");
      }
      if (!std::isfinite(a.seconds) || a.seconds <= 0.0) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--digests") {
      a.digests_dir = value();
    } else if (flag == "--source-rev") {
      a.source_rev = value();
    } else if (flag == "--passes") {
      a.passes = static_cast<std::size_t>(parse_u64(flag, value()));
    } else if (flag == "--pin") {
      a.pin = true;
    } else if (flag == "--dump") {
      a.dump = true;
    } else if (flag == "--list-metrics") {
      a.list_metrics = true;
    } else {
      usage("unknown option '" + flag + "'");
    }
  }
  if (!a.list_metrics && !have_workload) usage("--workload is required");
  return a;
}

// ---- host fingerprint --------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string fingerprint_json(const Args& a) {
  return "{\"cpu\": " + json_string(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"source_rev\": " + json_string(a.source_rev) + "}";
}

// ---- statistics ----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- one pass ----------------------------------------------------------------

/// Layer attribution of one traced pass: the simulator's sampled phase
/// timer (fabric time credited to mot or noc by the cell's fabric) and the
/// modeled counters of every cell.
struct Layers {
  double cpu_s = 0, coherence_s = 0, mot_s = 0, noc_s = 0, l2_s = 0, dram_s = 0;
  std::uint64_t stall_cycles = 0, invalidations = 0, inv_acks = 0;
  std::uint64_t mot_delivered = 0, mot_arb_wait = 0, noc_delivered = 0;
  std::uint64_t l2_accesses = 0, l2_hits = 0, l2_conflict_cycles = 0;
  std::uint64_t dram_accesses = 0, row_hits = 0, row_misses = 0;
  std::uint64_t refreshes = 0, remaps = 0, thermal_samples = 0, throttles = 0;

  double phase_sum() const { return cpu_s + coherence_s + mot_s + noc_s + l2_s + dram_s; }

  void add(const mot3d::cluster::SimResult& r, Fabric fabric) {
    const mot3d::obs::PhaseSeconds& p = r.phase_seconds;
    cpu_s += p.workload;
    coherence_s += p.coherence;
    (fabric == Fabric::kMot ? mot_s : noc_s) += p.fabric;
    l2_s += p.l2;
    dram_s += p.dram;
    for (const auto& c : r.cores) stall_cycles += c.stall_cycles;
    invalidations += r.coherence.invalidations;
    inv_acks += r.coherence.inv_acks;
    if (fabric == Fabric::kMot) {
      mot_delivered += r.interconnect.requests_delivered;
      mot_arb_wait += r.interconnect.arbitration_wait_cycles;
    } else {
      noc_delivered += r.interconnect.requests_delivered;
    }
    l2_accesses += r.l2.accesses();
    l2_hits += r.l2.hits;
    l2_conflict_cycles += r.l2.bank_conflict_cycles;
    dram_accesses += r.dram.reads + r.dram.writes;
    row_hits += r.dram3d.row_hits;
    row_misses += r.dram3d.row_misses;
    refreshes += r.dram3d.refreshes;
    remaps += r.dram3d.remaps;
    thermal_samples += r.thermal.samples;
    throttles += r.thermal.throttle_events;
  }
};

struct PassStats {
  double wall_s = 0, setup_s = 0, ctor_s = 0, run_s = 0, serialise_s = 0;
  std::uint64_t sim_cycles = 0, instructions = 0;
  double service_ctor_s = 0;  ///< SweepService construction (in setup_s)
  double service_cold_s = 0, service_warm_s = 0;
  double warm_p50_us = 0, warm_p90_us = 0;
  std::size_t warm_requests = 0, service_jobs = 0;
  mot3d::obs::ServiceSnapshot service;
  std::uint64_t cache_bytes = 0;
  Layers layers;
};

class Bench {
 public:
  Bench(std::string out_dir, Workload w, std::optional<Pins> pins)
      : out_dir_(std::move(out_dir)), w_(std::move(w)), pins_(std::move(pins)) {
    reference_.resize(w_.cells.size());
    for (std::size_t idx : w_.cold_stream) cold_jobs_.push_back(w_.cells[idx].job);
    for (std::size_t idx : w_.warm_stream) warm_batches_.push_back({w_.cells[idx].job});
  }

  PassStats pass(bool traced) {
    PassStats p;
    spans_.enable(traced);
    const std::uint32_t pass_id = spans_.next_id();
    const auto t0 = Clock::now();
    direct_pass(p, traced, pass_id);
    service_pass(p, pass_id);
    const auto t1 = Clock::now();
    p.wall_s = seconds_between(t0, t1);
    spans_.add(0, "pass", std::to_string(passes_), t0, t1, pass_id);
    ++passes_;
    return p;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const Workload& workload() const { return w_; }
  const SpanLog& spans() const { return spans_; }

 private:
  void fail(std::string msg) { failures_.push_back(std::move(msg)); }

  void check_output(std::size_t i, const std::string& json,
                    const mot3d::cluster::SimResult& r) {
    const Cell& cell = w_.cells[i];
    if (reference_[i].empty()) {
      reference_[i] = json;
    } else if (json != reference_[i]) {
      fail(cell.key + ": modeled output changed between passes");
      return;
    }
    if (!pins_) return;
    const auto it = pins_->find(cell.key);
    if (it == pins_->end()) {
      fail(cell.key + ": no pinned digest for this cell");
      return;
    }
    const Pin& pin = it->second;
    if (pin.sha256 != mot3d::sha256_hex(json) || pin.cycles != r.cycles ||
        pin.instructions != r.instructions) {
      fail(cell.key + ": modeled output differs from the pinned digest");
    }
  }

  void direct_pass(PassStats& p, bool traced, std::uint32_t pass_id) {
    for (std::size_t i = 0; i < w_.cells.size(); ++i) {
      const Cell& cell = w_.cells[i];
      ++attempted_;
      try {
        const std::uint32_t cell_id = spans_.next_id();
        const auto c0 = Clock::now();
        const mot3d::cluster::ClusterConfig cfg =
            mot3d::sim::make_run_config(cell.job.run, job_options(cell.job, traced));
        const auto c1 = Clock::now();
        auto cluster = std::make_unique<mot3d::cluster::Cluster>(cfg);
        const auto c2 = Clock::now();
        const mot3d::cluster::SimResult r = cluster->run();
        const auto c3 = Clock::now();
        const std::string json = mot3d::sim::run_metrics_json(cell.job.run, r);
        const auto c4 = Clock::now();
        cluster.reset();
        const auto c5 = Clock::now();

        p.setup_s += seconds_between(c0, c2);
        p.ctor_s += seconds_between(c1, c2);
        p.run_s += seconds_between(c2, c3);
        p.serialise_s += seconds_between(c3, c4);
        p.sim_cycles += r.cycles;
        p.instructions += r.instructions;
        if (traced) p.layers.add(r, cell.job.run.fabric);
        spans_.add(cell_id, "sim::make_run_config", cell.key, c0, c1);
        spans_.add(cell_id, "Cluster::Cluster", cell.key, c1, c2);
        spans_.add(cell_id, "Cluster::run", cell.key, c2, c3);
        spans_.add(cell_id, "sim::run_metrics_json", cell.key, c3, c4);
        spans_.add(cell_id, "Cluster::~Cluster", cell.key, c4, c5);
        spans_.add(pass_id, "cell", cell.key, c0, c5, cell_id);
        check_output(i, json, r);
      } catch (const std::exception& e) {
        fail(cell.key + ": run threw: " + e.what());
      }
    }
  }

  /// Checks one service outcome against the direct pass's payload.
  void check_job(std::size_t cell, const mot3d::sim::JobOutcome& out,
                 bool must_hit, const char* phase) {
    ++attempted_;
    const std::string& key = w_.cells[cell].key;
    if (!out.ok()) {
      fail(key + ": " + phase + " job failed: " + out.error);
    } else if (must_hit && !out.cache_hit) {
      fail(key + ": " + phase + " request missed the cache");
    } else if (!reference_[cell].empty() && out.payload != reference_[cell]) {
      fail(key + ": " + phase + " payload differs from the direct run");
    }
  }

  void service_pass(PassStats& p, std::uint32_t pass_id) {
    const fs::path dir = fs::path(out_dir_) /
                         ("cache-" + w_.name + "-" + std::to_string(getpid()) +
                          "-" + std::to_string(passes_));
    std::error_code ec;
    fs::remove_all(dir, ec);
    const std::uint32_t svc_id = spans_.next_id();
    const auto s0 = Clock::now();
    try {
      const auto a = Clock::now();
      auto svc = std::make_unique<mot3d::sim::SweepService>(
          mot3d::sim::ServiceConfig{.cache_dir = dir.string(), .threads = 1});
      const auto b = Clock::now();
      p.service_ctor_s = seconds_between(a, b);
      p.setup_s += p.service_ctor_s;
      spans_.add(svc_id, "SweepService::SweepService", w_.name, a, b);

      const auto c0 = Clock::now();
      const std::vector<mot3d::sim::JobOutcome> cold = svc->run_batch(cold_jobs_);
      const auto c1 = Clock::now();
      p.service_cold_s = seconds_between(c0, c1);
      spans_.add(svc_id, "SweepService::run_batch", "cold", c0, c1);
      for (std::size_t k = 0; k < cold.size(); ++k) {
        check_job(w_.cold_stream[k], cold[k], false, "cold");
      }
      p.cache_bytes = svc->cache_stats().bytes;

      std::vector<double> warm_us;
      warm_us.reserve(warm_batches_.size());
      for (std::size_t k = 0; k < warm_batches_.size(); ++k) {
        const auto w0 = Clock::now();
        const std::vector<mot3d::sim::JobOutcome> out = svc->run_batch(warm_batches_[k]);
        const auto w1 = Clock::now();
        warm_us.push_back(seconds_between(w0, w1) * 1e6);
        p.service_warm_s += seconds_between(w0, w1);
        spans_.add(svc_id, "SweepService::run_batch", "warm", w0, w1);
        check_job(w_.warm_stream[k], out.at(0), true, "warm");
      }
      p.warm_p50_us = quantile(warm_us, 0.5);
      p.warm_p90_us = quantile(warm_us, 0.9);
      p.warm_requests = warm_us.size();
      p.service_jobs = cold.size() + warm_batches_.size();
      p.service = svc->counters().snapshot();
    } catch (const std::exception& e) {
      ++attempted_;
      fail(std::string("sweep service threw: ") + e.what());
    }
    const auto s1 = Clock::now();
    spans_.add(pass_id, "service", w_.name, s0, s1, svc_id);
    fs::remove_all(dir, ec);
  }

  std::string out_dir_;  ///< per-pass cache directories go here
  Workload w_;
  std::optional<Pins> pins_;
  SpanLog spans_;
  std::vector<std::string> reference_;  ///< per-cell payload of the first pass
  std::vector<mot3d::sim::SweepJob> cold_jobs_;
  std::vector<std::vector<mot3d::sim::SweepJob>> warm_batches_;
  std::size_t attempted_ = 0;
  std::size_t passes_ = 0;
  std::vector<std::string> failures_;
};

// ---- metric assembly ------------------------------------------------------

using MetricValues = std::vector<std::pair<MetricDef, double>>;

/// Orders named values by `defs`; every defined metric must have a value.
MetricValues in_order(const std::vector<MetricDef>& defs,
                      const std::map<std::string, double>& values) {
  if (values.size() != defs.size()) throw std::logic_error("metric set mismatch");
  MetricValues out;
  for (const MetricDef& d : defs) out.emplace_back(d, values.at(d.name));
  return out;
}

template <typename Fn>
std::vector<double> collect(const std::vector<PassStats>& ps, Fn&& f) {
  std::vector<double> v;
  for (const PassStats& p : ps) v.push_back(f(p));
  return v;
}

MetricValues end_to_end_metrics(const std::vector<PassStats>& ps) {
  auto med = [&](auto f) { return median(collect(ps, f)); };
  return in_order(end_to_end_defs(), {
      {"setup_s", med([](const PassStats& p) { return p.setup_s; })},
      {"run_s", med([](const PassStats& p) { return p.run_s; })},
      {"sim_cycles_per_s", med([](const PassStats& p) {
         return ratio(static_cast<double>(p.sim_cycles), p.run_s);
       })},
      {"sim_instr_per_s", med([](const PassStats& p) {
         return ratio(static_cast<double>(p.instructions), p.run_s);
       })},
      {"peak_rss_mb", peak_rss_mb()},
      {"service_cold_s", med([](const PassStats& p) { return p.service_cold_s; })},
      {"service_warm_req_p50_us",
       mean(collect(ps, [](const PassStats& p) { return p.warm_p50_us; }))},
      {"service_warm_req_p90_us",
       mean(collect(ps, [](const PassStats& p) { return p.warm_p90_us; }))},
      {"service_jobs_per_s", med([](const PassStats& p) {
         return ratio(static_cast<double>(p.service_jobs),
                      p.service_cold_s + p.service_warm_s);
       })},
  });
}

MetricValues per_layer_metrics(const std::vector<PassStats>& untraced,
                               const std::vector<PassStats>& traced,
                               const LayerProbeTimes& d) {
  auto med = [&](auto f) { return median(collect(traced, f)); };
  auto layer = [&](auto f) {
    return med([&](const PassStats& p) { return static_cast<double>(f(p.layers)); });
  };
  const double untraced_run = median(collect(untraced, [](const PassStats& p) { return p.run_s; }));
  const double traced_run = med([](const PassStats& p) { return p.run_s; });
  return in_order(per_layer_defs(), {
      {"cluster.ctor_s", med([](const PassStats& p) { return p.ctor_s; })},
      {"cluster.unattributed_s",
       med([](const PassStats& p) { return p.run_s - p.layers.phase_sum(); })},
      {"cluster.sim_cycles",
       med([](const PassStats& p) { return static_cast<double>(p.sim_cycles); })},
      {"cluster.host_ns_per_sim_cycle", med([](const PassStats& p) {
         return ratio(p.run_s * 1e9, static_cast<double>(p.sim_cycles));
       })},
      {"cpu.host_s", layer([](const Layers& l) { return l.cpu_s; })},
      {"cpu.instructions",
       med([](const PassStats& p) { return static_cast<double>(p.instructions); })},
      {"cpu.stall_cycles", layer([](const Layers& l) { return l.stall_cycles; })},
      {"workload.trace_ns_per_op", d.trace_ns_per_op},
      {"coherence.host_s", layer([](const Layers& l) { return l.coherence_s; })},
      {"coherence.invalidations", layer([](const Layers& l) { return l.invalidations; })},
      {"coherence.inv_acks", layer([](const Layers& l) { return l.inv_acks; })},
      {"coherence.dir_ns_per_req", d.dir_ns_per_req},
      {"mot.host_s", layer([](const Layers& l) { return l.mot_s; })},
      {"mot.requests_delivered", layer([](const Layers& l) { return l.mot_delivered; })},
      {"mot.arb_wait_cycles", layer([](const Layers& l) { return l.mot_arb_wait; })},
      {"mot.tick_ns", d.mot_tick_ns},
      {"mot.arbitrate_ns", d.mot_arbitrate_ns},
      {"noc.host_share",
       med([](const PassStats& p) { return ratio(p.layers.noc_s, p.run_s); })},
      {"noc.requests_delivered", layer([](const Layers& l) { return l.noc_delivered; })},
      {"noc.tick_ns", d.noc_tick_ns},
      {"fabric.host_s", layer([](const Layers& l) { return l.mot_s + l.noc_s; })},
      {"fabric.host_us_per_request", layer([](const Layers& l) {
         return ratio((l.mot_s + l.noc_s) * 1e6,
                      static_cast<double>(l.mot_delivered + l.noc_delivered));
       })},
      {"l2.host_s", layer([](const Layers& l) { return l.l2_s; })},
      {"l2.accesses", layer([](const Layers& l) { return l.l2_accesses; })},
      {"l2.hit_ratio", layer([](const Layers& l) {
         return ratio(static_cast<double>(l.l2_hits), static_cast<double>(l.l2_accesses));
       })},
      {"l2.bank_conflict_cycles", layer([](const Layers& l) { return l.l2_conflict_cycles; })},
      {"dram.host_s", layer([](const Layers& l) { return l.dram_s; })},
      {"dram.accesses", layer([](const Layers& l) { return l.dram_accesses; })},
      {"cache.lookup_ns", d.cache_lookup_ns},
      {"dram3d.row_hit_ratio", layer([](const Layers& l) {
         return ratio(static_cast<double>(l.row_hits),
                      static_cast<double>(l.row_hits + l.row_misses));
       })},
      {"dram3d.refreshes", layer([](const Layers& l) { return l.refreshes; })},
      {"dram3d.remaps", layer([](const Layers& l) { return l.remaps; })},
      {"dram3d.access_ns", d.dram3d_access_ns},
      {"thermal.samples", layer([](const Layers& l) { return l.thermal_samples; })},
      {"thermal.throttle_events", layer([](const Layers& l) { return l.throttles; })},
      {"thermal.step_ns", d.thermal_step_ns},
      {"sim.serialise_s", med([](const PassStats& p) { return p.serialise_s; })},
      {"service.ctor_s", med([](const PassStats& p) { return p.service_ctor_s; })},
      {"service.hash_ns", d.hash_ns},
      {"service.hit_ratio", med([](const PassStats& p) {
         return ratio(static_cast<double>(p.service.hits),
                      static_cast<double>(p.service.hits + p.service.misses));
       })},
      {"service.computed",
       med([](const PassStats& p) { return static_cast<double>(p.service.computed); })},
      {"service.cache_bytes",
       med([](const PassStats& p) { return static_cast<double>(p.cache_bytes); })},
      {"service.warm_s", med([](const PassStats& p) { return p.service_warm_s; })},
      {"obs.trace_overhead", ratio(traced_run, untraced_run) - 1.0},
  });
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The host-time layers compared for the "dominant layer" line (the fabric
/// layer as a whole; noc.host_share and mot.host_s split it).
void print_dominant_layer(const MetricValues& m, std::ostream& os) {
  static const std::vector<std::string> time_layers = {
      "cluster.ctor_s", "cluster.unattributed_s", "cpu.host_s",      "coherence.host_s",
      "fabric.host_s",  "l2.host_s",              "dram.host_s",     "sim.serialise_s",
      "service.warm_s"};
  std::string best;
  double best_v = -1.0, fabric_s = 0.0, mot_s = 0.0;
  for (const auto& [def, v] : m) {
    if (std::find(time_layers.begin(), time_layers.end(), def.name) != time_layers.end() &&
        v > best_v) {
      best = def.name;
      best_v = v;
    }
    if (def.name == std::string("fabric.host_s")) fabric_s = v;
    if (def.name == std::string("mot.host_s")) mot_s = v;
  }
  os << "# dominant layer: " << best << " (" << number(best_v) << " s per pass)\n"
     << "# fabric split: mot " << number(mot_s) << " s, noc " << number(fabric_s - mot_s)
     << " s per pass\n";
}

int list_metrics() {
  auto list = [](const std::vector<MetricDef>& defs) {
    std::string out = "[";
    for (std::size_t i = 0; i < defs.size(); ++i) {
      out += std::string(i ? ", " : "") + "{\"name\": " + json_string(defs[i].name) +
             ", \"unit\": " + json_string(defs[i].unit) + "}";
    }
    return out + "]";
  };
  std::cout << "{\"end_to_end\": " << list(end_to_end_defs())
            << ", \"per_layer\": " << list(per_layer_defs()) << "}\n";
  return 0;
}

int dump(const Workload& w) {
  for (const Cell& c : w.cells) {
    std::cout << "cell " << c.key << " " << mot3d::sim::job_hash(c.job) << "\n";
  }
  std::cout << "cold";
  for (std::size_t i : w.cold_stream) std::cout << " " << i;
  std::cout << "\nwarm";
  for (std::size_t i : w.warm_stream) std::cout << " " << i;
  std::cout << "\n";
  return 0;
}

/// Runs each cell once and prints its pin line.
int pin(const Workload& w, std::uint64_t seed) {
  for (const Cell& c : w.cells) {
    const auto r = mot3d::cluster::Cluster(
                       mot3d::sim::make_run_config(c.job.run, job_options(c.job, false)))
                       .run();
    const Pin p{mot3d::sha256_hex(mot3d::sim::run_metrics_json(c.job.run, r)), r.cycles,
                r.instructions};
    std::cout << pin_line(seed, c.key, p) << "\n";
  }
  return 0;
}

int run(const Args& args) {
  Workload w = make_workload(args.workload, args.seed);
  if (args.dump) return dump(w);
  if (args.pin) return pin(w, args.seed);

  std::optional<Pins> pins;
  if (!args.digests_dir.empty()) pins = load_pins(args.digests_dir, w.name, args.seed);
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);

  const std::string fingerprint = fingerprint_json(args);
  std::cout << "# perfbench workload=" << w.name << " seed=" << args.seed
            << " trace=" << (args.trace ? 1 : 0) << " cells=" << w.cells.size()
            << " cold_jobs=" << w.cold_stream.size()
            << " warm_requests=" << w.warm_stream.size() << "\n"
            << "# fingerprint: " << fingerprint << "\n";
  if (pins) {
    std::cout << "# oracle: " << pins->size() << " pinned digests for seed " << args.seed << "\n";
  } else {
    std::cout << "# oracle: no pinned digests for seed " << args.seed
              << "; digest check skipped (pass-to-pass and service payload checks still run)\n";
  }

  Bench bench(args.out_dir, std::move(w), std::move(pins));
  const auto start = Clock::now();
  auto more = [&](std::size_t done, std::size_t min_done) {
    if (args.passes > 0) return done < args.passes;
    return done < min_done || seconds_between(start, Clock::now()) < args.seconds;
  };

  std::vector<PassStats> untraced, traced;
  MetricValues metrics;
  if (!args.trace) {
    while (more(untraced.size(), kMinPasses)) untraced.push_back(bench.pass(false));
    metrics = end_to_end_metrics(untraced);
  } else {
    while (more(traced.size(), kMinTracedPairs)) {
      untraced.push_back(bench.pass(false));
      traced.push_back(bench.pass(true));
    }
    const LayerProbeTimes probes = run_layer_probes(bench.workload(), args.seed);
    metrics = per_layer_metrics(untraced, traced, probes);
    const std::string path = args.out_dir + "/spans-" + bench.workload().name + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (bench.spans().write_json(path, fingerprint)) {
      std::cout << "# spans: " << bench.spans().size() << " written to " << path << "\n";
    } else {
      std::cerr << "warning: cannot write spans to " << path << "\n";
    }
  }

  const std::vector<PassStats>& timed = args.trace ? traced : untraced;
  for (const PassStats& p : timed) {
    std::cout << "# pass: wall_s=" << number(p.wall_s) << " setup_s=" << number(p.setup_s)
              << " run_s=" << number(p.run_s) << " service_cold_s=" << number(p.service_cold_s)
              << " service_warm_s=" << number(p.service_warm_s)
              << " warm_p50_us=" << number(p.warm_p50_us) << "\n";
  }
  for (const auto& [def, v] : metrics) {
    std::cout << "# " << def.name << " = " << number(v) << " " << def.unit << "\n";
  }
  if (!args.trace) {
    std::cout << "# (medians over " << timed.size() << " passes; warm latency percentiles "
              << "per pass over " << (timed.empty() ? 0 : timed.front().warm_requests)
              << " requests each)\n";
  } else {
    print_dominant_layer(metrics, std::cout);
  }
  std::cout << "# error_rate = " << number(ratio(static_cast<double>(bench.failed()),
                                                 static_cast<double>(bench.attempted())))
            << " (" << bench.failed() << " failed of " << bench.attempted() << " attempted)\n";
  constexpr std::size_t kMaxFailureLines = 20;
  for (std::size_t i = 0; i < bench.failures().size() && i < kMaxFailureLines; ++i) {
    std::cout << "# FAILED: " << bench.failures()[i] << "\n";
  }

  std::string json = "{\"correct\": " + std::string(bench.failed() == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(bench.attempted()) +
                     ", \"failed\": " + std::to_string(bench.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += std::string(i ? ", " : "") + json_string(metrics[i].first.name) +
            ": {\"value\": " + number(metrics[i].second) +
            ", \"unit\": " + json_string(metrics[i].first.unit) + "}";
  }
  std::cout << json << "}}" << std::endl;
  return bench.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  if (args.list_metrics) return perfbench::list_metrics();
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
