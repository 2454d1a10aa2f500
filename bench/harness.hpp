// Shared run-flag parser of the mot3d_experiments CLI.
//
// Every figure/table experiment is a declarative sim::ScenarioSpec in the
// scenario registry (src/sim/scenario_registry.*); `mot3d_experiments run
// <name>` runs one by name, and its run/trace/grid/check-golden commands
// hand their pass-through flags to parse_options() below.
//
// Accepted flags:
//   --scale=<double>    fraction of each app's full instruction budget
//                       (default = the scenario's registered default)
//   --seed=<u64>        workload RNG seed (default 42)
//   --threads=<n>       sweep worker threads; 0 = hardware concurrency
//   --json=<path>       write a perf + metrics JSON report
//   --scheduler=event|dense
//                       cluster time-advance mode (default: event; results
//                       are bit-identical, only wall-clock differs)
//   --timeout=<seconds> per-run wall-clock budget (0 = none); a run over
//                       budget dies with a watchdog error recorded against
//                       that run, and the binary exits non-zero
//   --trace=<path>      write a Chrome-trace-event JSON of every run (one
//                       process per run, one track per core / L2 bank /
//                       fabric / governor; open in Perfetto)
//   --metrics=<path>    write the interval-metrics time series (JSON, or
//                       long-format CSV when the path ends in .csv)
// Unknown flags are rejected with an error — a typo like --sacle=0.5 must
// never silently fall back to the default.
//
// Results are shape-stable in scale — the paper's absolute testbed numbers
// are not reproducible by construction (see DESIGN.md), so each scenario
// prints our measured series next to the paper's reported deltas.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "sim/scenario.hpp"

namespace mot3d::bench {

struct Options {
  double scale = 0.5;
  std::uint64_t seed = 42;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  std::string json_path;
  cluster::SchedulerMode scheduler = cluster::SchedulerMode::kEventDriven;
  double timeout_seconds = 0.0;  ///< per-run watchdog wall budget (0 = none)
  std::string trace_path;        ///< Chrome-trace destination ("" = off)
  std::string metrics_path;      ///< interval-metrics destination ("" = off)
};

inline void print_usage(std::ostream& os) {
  os << "run flags: [--scale=<double>] [--seed=<u64>] [--threads=<n>]\n"
     << "           [--json=<path>] [--scheduler=event|dense]\n"
     << "           [--timeout=<seconds>] [--trace=<path>] [--metrics=<path>]\n";
}

[[noreturn]] inline void usage_error(const std::string& msg) {
  std::cerr << "error: " << msg << "\n";
  print_usage(std::cerr);
  std::exit(2);
}

/// Whole-string numeric parsers: trailing junk (--scale=0,75, --seed=5abc)
/// must fail loudly, not silently truncate at the first bad character.
inline double parse_double_value(const std::string& flag, const std::string& v) {
  std::size_t pos = 0;
  const double d = std::stod(v, &pos);  // throws on empty/non-numeric
  if (pos != v.size()) usage_error("malformed value in '" + flag + "'");
  return d;
}

inline std::uint64_t parse_u64_value(const std::string& flag, const std::string& v) {
  if (v.empty() || v[0] == '-') usage_error("malformed value in '" + flag + "'");
  std::size_t pos = 0;
  const std::uint64_t n = std::stoull(v, &pos);
  if (pos != v.size()) usage_error("malformed value in '" + flag + "'");
  return n;
}

/// `default_scale` comes from the scenario registry entry (the Fig. 7/8
/// EDP experiments need working-set *reuse* at 0.5; Fig. 6 has no capacity
/// story and uses 0.25 to keep the 32 packet-switched runs quick).
inline Options parse_options(int argc, char** argv, double default_scale = 0.5) {
  Options opt;
  opt.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg.rfind("--scale=", 0) == 0) {
        opt.scale = parse_double_value(arg, arg.substr(8));
      } else if (arg.rfind("--seed=", 0) == 0) {
        opt.seed = parse_u64_value(arg, arg.substr(7));
      } else if (arg.rfind("--threads=", 0) == 0) {
        const std::uint64_t n = parse_u64_value(arg, arg.substr(10));
        if (n > 1024) {
          usage_error("--threads=" + arg.substr(10) + " is out of range (max 1024)");
        }
        opt.threads = static_cast<unsigned>(n);
      } else if (arg.rfind("--json=", 0) == 0) {
        opt.json_path = arg.substr(7);
        if (opt.json_path.empty()) usage_error("--json= needs a path");
      } else if (arg.rfind("--trace=", 0) == 0) {
        opt.trace_path = arg.substr(8);
        if (opt.trace_path.empty()) usage_error("--trace= needs a path");
      } else if (arg.rfind("--metrics=", 0) == 0) {
        opt.metrics_path = arg.substr(10);
        if (opt.metrics_path.empty()) usage_error("--metrics= needs a path");
      } else if (arg.rfind("--timeout=", 0) == 0) {
        opt.timeout_seconds = parse_double_value(arg, arg.substr(10));
        if (!std::isfinite(opt.timeout_seconds) || opt.timeout_seconds < 0.0) {
          usage_error("--timeout must be a non-negative finite number of seconds");
        }
      } else if (arg.rfind("--scheduler=", 0) == 0) {
        const std::string mode = arg.substr(12);
        if (mode == "event") {
          opt.scheduler = cluster::SchedulerMode::kEventDriven;
        } else if (mode == "dense") {
          opt.scheduler = cluster::SchedulerMode::kDenseTick;
        } else {
          usage_error("unknown scheduler '" + mode + "' (want event|dense)");
        }
      } else if (arg == "--help" || arg == "-h") {
        print_usage(std::cout);
        std::exit(0);
      } else {
        usage_error("unknown option '" + arg + "'");
      }
    } catch (const std::invalid_argument&) {
      usage_error("malformed value in '" + arg + "'");
    } catch (const std::out_of_range&) {
      usage_error("value out of range in '" + arg + "'");
    }
  }
  if (const char* env = std::getenv("MOT3D_SCALE")) {
    try {
      opt.scale = parse_double_value("MOT3D_SCALE=" + std::string(env), env);
    } catch (const std::invalid_argument&) {
      usage_error("malformed value in 'MOT3D_SCALE=" + std::string(env) + "'");
    } catch (const std::out_of_range&) {
      usage_error("value out of range in 'MOT3D_SCALE=" + std::string(env) + "'");
    }
  }
  // Covers both --scale= and MOT3D_SCALE: the workload plan scales an
  // instruction budget, so the fraction must be a positive finite number.
  if (!std::isfinite(opt.scale) || opt.scale <= 0.0) {
    usage_error("scale must be a positive finite number, got " +
                std::to_string(opt.scale));
  }
  return opt;
}

inline sim::ScenarioOptions to_scenario_options(const Options& opt) {
  sim::ScenarioOptions sopt;
  sopt.scale = opt.scale;
  sopt.seed = opt.seed;
  sopt.threads = opt.threads;
  sopt.scheduler = opt.scheduler;
  sopt.json_path = opt.json_path;
  sopt.timeout_seconds = opt.timeout_seconds;
  sopt.trace_path = opt.trace_path;
  sopt.metrics_path = opt.metrics_path;
  return sopt;
}

}  // namespace mot3d::bench
