// mot3d_experiments — one CLI over the whole scenario registry.
//
//   mot3d_experiments list                      # every registered scenario
//   mot3d_experiments run <name>... [flags]     # run registered scenarios
//   mot3d_experiments trace <name> [flags]      # run with tracing+metrics on
//   mot3d_experiments grid --apps=... [flags]   # ad-hoc declarative grid
//   mot3d_experiments scale [flags]             # scale-out throughput grid
//   mot3d_experiments update-golden [name...]   # regenerate golden baselines
//   mot3d_experiments check-golden [name...]    # compare against baselines
//
// Every flag of every command is parsed once, by parse_cli().  The run
// flags (run/trace/grid; scale takes all but --threads/--trace/--metrics):
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
// A flag a command does not take exits 2 — a typo like --sacle=0.5 must
// never silently fall back to the default.
//
// `run` also takes --golden to force a scenario's pinned golden options
// (golden_scale + registry seed) — handy to eyeball exactly what the
// regression suite compares.  Results are shape-stable in scale — the
// paper's absolute testbed numbers are not reproducible by construction
// (see DESIGN.md), so each scenario prints our measured series next to the
// paper's reported deltas.
//
// `trace` is `run` for one scenario with observability on by default:
// --trace/--metrics fall back to <name>.trace.json / <name>.metrics.json.
// Open the trace in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// `grid` builds a one-off ScenarioSpec from comma-separated axis lists:
//   --apps=fft,fmm            (default: all eight SPLASH-2 programs)
//   --fabrics=mot,mesh3d,busmesh,bustree        (default: mot)
//   --states=Full,PC16-MB8,PC4-MB32,PC4-MB8,PC8-MB16,...  (default: Full)
//   --dram=200,63,42          (default: 200)
// Invalid combinations (gated states on packet-switched fabrics) are
// skipped with a note, exactly like registered sweeps.
//
// `scale` is the perf trajectory behind BENCH_scale.json: a (core count x
// sharing pattern) grid on the MoT fabric — the only fabric with scale-out
// shapes — at `FullNx2N` power states, one cluster simulation per cell,
// reporting modeled results (cycles, instructions) next to simulator
// throughput (wall seconds, simulated cycles/s).
//   --cores=64,256,1024       core counts (powers of two >= 16)
//   --patterns=all_to_all,... sharing workloads (--patterns=help lists them)
//   --baseline=<path>         compare against a committed BENCH_scale.json;
//                             with --update-baseline, (re)write it instead
//   --tolerance=<frac>        allowed relative cycles/s drop per cell
// The committed baseline pins both halves of a cell:
//  * modeled metrics are deterministic, so they must match the baseline
//    EXACTLY — any drift means simulator behaviour changed and the golden
//    story needs a deliberate refresh;
//  * cycles/s is machine- and load-dependent, so it is compared with a
//    deliberately loose relative tolerance (default 0.5: fail only when a
//    cell's throughput drops below half the baseline).  The tolerance is
//    wide enough to absorb CI-runner noise yet still catches the
//    order-of-magnitude regressions that matter (an accidental O(cores)
//    scan re-entering the per-cycle hot path).
// Exit codes of `scale` (asserted by tests/soak_harness.py --bench and the
// CI perf-guardrail job):
//   0  grid ran; no baseline requested, or baseline matched
//   1  regression: modeled mismatch, throughput below tolerance, or a
//      cell's simulation failed (watchdog timeout, config error)
//   2  usage error (unknown flag, malformed value)
//   3  baseline missing, unparsable, or incompatible with this invocation
//
// `update-golden` re-runs every golden scenario (or just the named ones)
// at its pinned golden options and rewrites tests/golden/<name>.json.
// This is the one sanctioned way to change a baseline: do it on purpose,
// look at the diff, and say why in the commit message (see DESIGN.md).
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/table.hpp"
#include "sim/json_reader.hpp"
#include "sim/perf_report.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/sweep_service.hpp"
#include "workload/app_profile.hpp"

namespace {

using namespace mot3d;

#ifndef MOT3D_SOURCE_DIR
#define MOT3D_SOURCE_DIR "."
#endif

void print_cli_usage(std::ostream& os) {
  os << "usage: mot3d_experiments <command> [flags]\n"
     << "  list | --list               list registered scenarios\n"
     << "  describe <name>...          print a scenario's axes and run count\n"
     << "  run <name>... [flags]       run registered scenarios by name\n"
     << "  trace <name> [flags]        run one scenario with tracing+metrics on\n"
     << "  grid [axes] [flags]         run an ad-hoc grid\n"
     << "  scale [scale flags]         scale-out throughput grid + baseline\n"
     << "  update-golden [name...]     regenerate golden baselines\n"
     << "  check-golden [name...]      re-run and diff against baselines\n"
     << "  serve --cache-dir=<path>    cache-backed request/response daemon\n"
     << "  batch --cache-dir=<path>    drain NDJSON requests (stdin or\n"
     << "                              --requests=<file>) through the cache\n"
     << "  cache stats|clear --cache-dir=<path>   inspect / empty the cache\n"
     << "flags: --scale=<d> --seed=<u64> --threads=<n> --json=<path>\n"
     << "       --scheduler=event|dense --timeout=<seconds> --golden\n"
     << "       --trace=<path> --metrics=<path>\n"
     << "grid axes: --apps=a,b --fabrics=mot,mesh3d,busmesh,bustree\n"
     << "           --states=Full,PC4-MB8,... --dram=200,63,42\n"
     << "scale flags: --cores=64,256,1024 --patterns=<list>|help\n"
     << "             --baseline=<path> [--update-baseline]\n"
     << "             --tolerance=<frac> (default 0.5) --scale=<d> (default\n"
     << "             0.02) --seed --scheduler --timeout --json\n"
     << "update-golden/check-golden: --dir=<path> (default: " MOT3D_SOURCE_DIR
        "/tests/golden)\n"
     << "serve/batch: --cache-dir=<path> [--threads=<n>]\n"
     << "             [--scheduler=event|dense] [--max-cache-bytes=<n>]\n"
     << "             [--requests=<file>]  (scale/seed/timeout are\n"
     << "             per-request JSON fields, not flags)\n";
}

/// Every flag of every command, parsed once.
struct CliArgs {
  std::vector<std::string> names;  ///< positional arguments
  sim::ScenarioOptions run;        ///< run flags (and serve/batch's)
  bool scale_given = false;        ///< --scale overrides the default scale
  bool use_golden_options = false;
  bool help = false;
  // grid axes
  std::vector<std::string> apps;
  std::vector<std::string> fabrics;
  std::vector<std::string> states;
  std::vector<std::string> dram;
  // update-golden / check-golden
  std::string golden_dir = MOT3D_SOURCE_DIR "/tests/golden";
  // serve / batch / cache
  std::string cache_dir;
  std::string requests_path;
  std::uint64_t max_cache_bytes = 0;
  // scale
  std::vector<std::size_t> cores{64, 256, 1024};
  std::vector<std::string> patterns{"all_to_all", "producer_consumer",
                                    "read_mostly", "migratory"};
  std::string baseline_path;
  bool update_baseline = false;
  double tolerance = 0.5;
};

struct Command {
  const char* name;
  /// The flags the command takes, space-separated.
  std::string flags;
  /// Appended to "<name> takes no run flags (got '<flag>')" when the
  /// command is given a flag it does not take; null reports the flag as
  /// an unknown option instead.
  const char* refusal;
  int (*body)(const CliArgs&);

  bool takes(const std::string& flag) const {
    return (" " + flags + " ").find(" " + flag + " ") != std::string::npos;
  }
};

/// Whole-string numeric parsers: trailing junk (--scale=0,75, --seed=5abc)
/// and a sign on an unsigned value (--threads=-1) must fail loudly, never
/// truncate or wrap.
std::uint64_t parse_u64(const std::string& arg, const std::string& v) {
  std::size_t used = 0;
  std::uint64_t n = 0;
  try {
    if (!v.empty() && std::isdigit(static_cast<unsigned char>(v[0]))) {
      n = std::stoull(v, &used);
    }
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("value out of range in '" + arg + "'");
  }
  if (used == 0 || used != v.size()) {
    throw std::invalid_argument("malformed value in '" + arg +
                                "' (want a non-negative integer)");
  }
  return n;
}

double parse_double(const std::string& arg, const std::string& v) {
  std::size_t used = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &used);
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("value out of range in '" + arg + "'");
  } catch (const std::invalid_argument&) {
  }
  if (used == 0 || used != v.size()) {
    throw std::invalid_argument("malformed value in '" + arg + "'");
  }
  return d;
}

cluster::SchedulerMode parse_scheduler(const std::string& v) {
  if (v == "event") return cluster::SchedulerMode::kEventDriven;
  if (v == "dense") return cluster::SchedulerMode::kDenseTick;
  throw std::invalid_argument("unknown scheduler '" + v + "' (want event|dense)");
}

std::vector<std::string> split_csv(const std::string& flag, const std::string& v) {
  std::vector<std::string> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  // "--apps=" or "--apps=,," must fail loudly, not silently mean "all".
  if (out.empty()) {
    throw std::invalid_argument("empty value in '" + flag +
                                "' (give a comma-separated list)");
  }
  return out;
}

std::string non_empty_path(const std::string& flag, const std::string& v) {
  if (v.empty()) throw std::invalid_argument(flag + "= needs a path");
  return v;
}

/// Parses argv[2..] for `cmd`; throws std::invalid_argument (exit 2) on a
/// malformed value or a flag `cmd` does not take.
CliArgs parse_cli(int argc, char** argv, const Command& cmd) {
  CliArgs cli;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      cli.help = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      cli.names.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (!cmd.takes(flag)) {
      if (cmd.refusal == nullptr) {
        throw std::invalid_argument("unknown option '" + arg + "'");
      }
      throw std::invalid_argument(std::string(cmd.name) +
                                  " takes no run flags (got '" + arg + "')" +
                                  cmd.refusal);
    }
    if (flag == "--scale") {
      cli.run.scale = parse_double(arg, v);
      cli.scale_given = true;
      // The workload plan scales an instruction budget.
      if (!std::isfinite(cli.run.scale) || cli.run.scale <= 0.0) {
        throw std::invalid_argument(
            "scale must be a positive finite number, got " + v);
      }
    } else if (flag == "--seed") {
      cli.run.seed = parse_u64(arg, v);
    } else if (flag == "--threads") {
      const std::uint64_t n = parse_u64(arg, v);
      if (n > 1024) {
        throw std::invalid_argument("--threads=" + v +
                                    " is out of range (max 1024)");
      }
      cli.run.threads = static_cast<unsigned>(n);
    } else if (flag == "--scheduler") {
      cli.run.scheduler = parse_scheduler(v);
    } else if (flag == "--timeout") {
      cli.run.timeout_seconds = parse_double(arg, v);
      if (!std::isfinite(cli.run.timeout_seconds) ||
          cli.run.timeout_seconds < 0.0) {
        throw std::invalid_argument(
            "--timeout must be a non-negative finite number of seconds");
      }
    } else if (flag == "--json") {
      cli.run.json_path = non_empty_path(flag, v);
    } else if (flag == "--trace") {
      cli.run.trace_path = non_empty_path(flag, v);
    } else if (flag == "--metrics") {
      cli.run.metrics_path = non_empty_path(flag, v);
    } else if (flag == "--apps") {
      cli.apps = split_csv(arg, v);
    } else if (flag == "--fabrics") {
      cli.fabrics = split_csv(arg, v);
    } else if (flag == "--states") {
      cli.states = split_csv(arg, v);
    } else if (flag == "--dram") {
      cli.dram = split_csv(arg, v);
    } else if (flag == "--dir") {
      cli.golden_dir = v;
    } else if (flag == "--cache-dir") {
      cli.cache_dir = v;
    } else if (flag == "--requests") {
      cli.requests_path = v;
    } else if (flag == "--max-cache-bytes") {
      cli.max_cache_bytes = parse_u64(arg, v);
    } else if (flag == "--cores") {
      cli.cores.clear();
      for (const std::string& c : split_csv(arg, v)) {
        cli.cores.push_back(static_cast<std::size_t>(parse_u64(arg, c)));
      }
    } else if (flag == "--patterns") {
      cli.patterns = split_csv(arg, v);
    } else if (flag == "--baseline") {
      cli.baseline_path = non_empty_path(flag, v);
    } else if (flag == "--tolerance") {
      cli.tolerance = parse_double(arg, v);
      if (!std::isfinite(cli.tolerance) || cli.tolerance < 0.0 ||
          cli.tolerance >= 1.0) {
        throw std::invalid_argument("--tolerance must be in [0, 1)");
      }
    } else if (arg == "--golden") {
      cli.use_golden_options = true;
    } else if (arg == "--update-baseline") {
      cli.update_baseline = true;
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  return cli;
}

/// The run options for one scenario: its default_scale unless --scale was
/// given.  --golden pins the modeled inputs (scale, seed) to the golden
/// options; output paths, threads, scheduler and timeout are observer-side
/// and survive the override.
sim::ScenarioOptions options_for(const CliArgs& cli, const sim::ScenarioSpec& spec) {
  sim::ScenarioOptions opt = cli.run;
  if (cli.use_golden_options) {
    const sim::ScenarioOptions golden = sim::golden_options(spec);
    opt.scale = golden.scale;
    opt.seed = golden.seed;
  } else if (!cli.scale_given) {
    opt.scale = spec.default_scale;
  }
  return opt;
}

void list_registered_names(std::ostream& os) {
  os << "registered scenarios:";
  for (const sim::ScenarioSpec& s : sim::all_scenarios()) os << " " << s.name;
  os << "\n";
}

int cmd_list() {
  TextTable tbl("registered scenarios (mot3d_experiments run <name>)");
  tbl.set_header({"name", "figure", "kind", "grid", "golden", "description"});
  for (const sim::ScenarioSpec& s : sim::all_scenarios()) {
    const char* kind = s.kind == sim::ScenarioSpec::Kind::kSweep    ? "sweep"
                       : s.kind == sim::ScenarioSpec::Kind::kTiming ? "timing"
                                                                    : "custom";
    tbl.add_row({s.name, s.figure, kind,
                 s.kind == sim::ScenarioSpec::Kind::kSweep
                     ? std::to_string(s.grid_size()) + " runs"
                     : "-",
                 s.has_golden ? "yes" : "-", s.description});
  }
  tbl.print(std::cout);
  return 0;
}

/// `describe <name>...` — everything one wants to know about a scenario's
/// grid *before* paying for the runs: the declared axes, the expanded run
/// count, and how many grid cells are dropped as invalid.
int cmd_describe(const CliArgs& cli) {
  const std::vector<std::string>& names = cli.names;
  if (names.empty()) {
    std::cerr << "error: describe needs at least one scenario name (see list)\n";
    return 2;
  }
  for (const std::string& name : names) {
    if (sim::find_scenario(name) == nullptr) {
      std::cerr << "error: scenario '" << name << "' is not registered\n";
      list_registered_names(std::cerr);
      return 2;
    }
  }
  for (const std::string& name : names) {
    const sim::ScenarioSpec& s = *sim::find_scenario(name);
    const char* kind = s.kind == sim::ScenarioSpec::Kind::kSweep    ? "sweep"
                       : s.kind == sim::ScenarioSpec::Kind::kTiming ? "timing"
                                                                    : "custom";
    std::cout << "scenario: " << s.name << "\n"
              << "  figure: " << s.figure << "\n"
              << "  kind: " << kind << "\n"
              << "  description: " << s.description << "\n"
              << "  golden: "
              << (s.has_golden ? "yes (scale=" + std::to_string(s.golden_scale) +
                                     ", seed=" + std::to_string(s.seed) + ")"
                               : "no")
              << "\n";
    if (s.kind == sim::ScenarioSpec::Kind::kCustom) {
      std::cout << "  axes: none (self-driving custom body)\n"
                << "  expected runs: 1 invocation\n";
      continue;
    }
    if (s.kind == sim::ScenarioSpec::Kind::kTiming) {
      std::cout << "  axis states:";
      for (const auto& st : s.power_states) std::cout << " " << st.name();
      std::cout << "\n  expected runs: " << s.power_states.size()
                << " analytic rows (no simulation)\n";
      continue;
    }
    std::cout << "  axis apps (" << s.apps.size() << "):";
    for (const auto& a : s.apps) std::cout << " " << a;
    std::cout << "\n  axis fabrics (" << s.fabrics.size() << "):";
    for (auto f : s.fabrics) std::cout << " " << sim::fabric_key(f);
    std::cout << "\n  axis states (" << s.power_states.size() << "):";
    for (const auto& st : s.power_states) std::cout << " " << st.name();
    std::cout << "\n  axis dram (" << s.dram_presets.size() << "):";
    for (auto d : s.dram_presets)
      std::cout << " " << static_cast<int>(mem::dram_latency_ns(d)) << "ns";
    if (!s.thermal_envelopes.empty()) {
      std::cout << "\n  axis thermal envelopes: " << s.thermal_envelopes.size()
                << " (ambient x ceiling cells)";
    }
    if (!s.fault_envelopes.empty()) {
      std::cout << "\n  axis fault envelopes: " << s.fault_envelopes.size()
                << " (fault-rate x seed cells)";
    }
    if (!s.dram_backends.empty()) {
      std::cout << "\n  axis dram_backend (" << s.dram_backends.size() << "):";
      for (auto b : s.dram_backends)
        std::cout << " " << sim::dram_backend_key(b);
    }
    std::size_t skipped = 0;
    const std::size_t valid = sim::expand_grid(s, &skipped).size();
    std::cout << "\n  grid cells: " << s.grid_size() << "\n"
              << "  expected runs: " << valid;
    if (skipped > 0) {
      std::cout << " (" << skipped
                << " invalid cells skipped: " << sim::invalid_cell_reason()
                << ")";
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_run(const CliArgs& cli) {
  if (cli.names.empty()) {
    std::cerr << "error: run needs at least one scenario name (see list)\n";
    return 2;
  }
  // One output path cannot hold several scenarios' files; refuse rather
  // than silently keep only the last one written.
  if (cli.names.size() > 1) {
    const std::pair<const char*, const std::string*> outputs[] = {
        {"--json", &cli.run.json_path},
        {"--trace", &cli.run.trace_path},
        {"--metrics", &cli.run.metrics_path}};
    for (const auto& [flag, path] : outputs) {
      if (!path->empty()) {
        std::cerr << "error: " << flag
                  << " with multiple scenarios would overwrite the same "
                     "file; run them one at a time\n";
        return 2;
      }
    }
  }
  // Validate every name up front: a typo in the third scenario must not
  // waste the first two runs before failing.
  for (const std::string& name : cli.names) {
    if (sim::find_scenario(name) == nullptr) {
      std::cerr << "error: scenario '" << name << "' is not registered\n";
      list_registered_names(std::cerr);
      return 2;
    }
  }
  for (const std::string& name : cli.names) {
    const sim::ScenarioSpec* spec = sim::find_scenario(name);
    const int rc = sim::run_and_present(*spec, options_for(cli, *spec), std::cout);
    if (rc != 0) return rc;
  }
  return 0;
}

/// `trace <name>` — `run` for one scenario with observability on by
/// default: --trace/--metrics fall back to <name>.trace.json /
/// <name>.metrics.json next to the current directory.
int cmd_trace(const CliArgs& cli) {
  if (cli.names.size() != 1) {
    std::cerr << "error: trace takes exactly one scenario name (see list)\n";
    return 2;
  }
  const std::string& name = cli.names.front();
  const sim::ScenarioSpec* spec = sim::find_scenario(name);
  if (spec == nullptr) {
    std::cerr << "error: scenario '" << name << "' is not registered\n";
    list_registered_names(std::cerr);
    return 2;
  }
  if (spec->kind != sim::ScenarioSpec::Kind::kSweep) {
    std::cerr << "error: trace needs a sweep scenario ('" << name << "' is "
              << (spec->kind == sim::ScenarioSpec::Kind::kTiming ? "analytic"
                                                                 : "custom")
              << ", nothing to trace)\n";
    return 2;
  }
  sim::ScenarioOptions opt = options_for(cli, *spec);
  if (opt.trace_path.empty()) opt.trace_path = name + ".trace.json";
  if (opt.metrics_path.empty()) opt.metrics_path = name + ".metrics.json";
  return sim::run_and_present(*spec, opt, std::cout);
}

int cmd_grid(const CliArgs& cli) {
  if (!cli.names.empty()) {
    std::cerr << "error: grid takes axis flags, not positional names (got '"
              << cli.names.front() << "')\n";
    return 2;
  }
  sim::ScenarioSpec spec;
  spec.name = "adhoc_grid";
  spec.figure = "-";
  spec.description = "ad-hoc grid from the command line";
  spec.has_golden = false;
  spec.apps = cli.apps.empty() ? workload::splash2_names() : cli.apps;
  for (const std::string& a : spec.apps) {
    try {
      (void)workload::profile_by_name(a);
    } catch (const std::out_of_range&) {
      std::cerr << "error: unknown app '" << a << "' in --apps (want:";
      for (const std::string& n : workload::splash2_names()) std::cerr << " " << n;
      std::cerr << ")\n";
      return 2;
    }
  }
  try {
    if (cli.fabrics.empty()) {
      spec.fabrics = {cluster::Fabric::kMot};
    } else {
      for (const std::string& f : cli.fabrics) {
        spec.fabrics.push_back(sim::fabric_by_key(f));
      }
    }
    if (cli.states.empty()) {
      spec.power_states = {core::PowerState::full()};
    } else {
      for (const std::string& s : cli.states) {
        spec.power_states.push_back(sim::power_state_by_name(s));
      }
    }
    if (cli.dram.empty()) {
      spec.dram_presets = {mem::DramPreset::kDdr3_200ns};
    } else {
      for (const std::string& d : cli.dram) {
        spec.dram_presets.push_back(sim::dram_preset_by_key(d));
      }
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return sim::run_and_present(spec, options_for(cli, spec), std::cout);
}

// ---- scale: scale-out throughput grid + BENCH_scale.json baseline ----------

constexpr double kScaleGridScale = 0.02;

struct ScaleCell {
  std::string app;
  std::size_t cores = 0;
  std::size_t banks = 0;
  std::string state;
  std::uint64_t cycles = 0;        ///< modeled; exact-match against baseline
  std::uint64_t instructions = 0;  ///< modeled; exact-match against baseline
  double wall_seconds = 0.0;
  double cycles_per_second = 0.0;
  /// Host-side wall seconds attributed per simulator phase (sampled, see
  /// obs::PhaseTimer), and the Cluster construction before the run, which
  /// wall_seconds includes.  Telemetry only: never compared against a
  /// baseline.
  obs::PhaseSeconds phases;
  std::string error;  ///< non-empty if the simulation failed
};

std::string state_name_for(std::size_t cores) {
  // The paper's native shape is 16x32 ("Full"); scale-out shapes keep the
  // 2 banks/core ratio the MoT geometry assumes.
  if (cores == 16) return "Full";
  return "Full" + std::to_string(cores) + "x" + std::to_string(2 * cores);
}

ScaleCell run_scale_cell(const sim::ScenarioOptions& opt, const std::string& app,
                         std::size_t cores) {
  ScaleCell cell;
  cell.app = app;
  cell.cores = cores;
  cell.banks = 2 * cores;
  cell.state = state_name_for(cores);

  sim::ScenarioSpec spec;
  spec.name = "bench_scale";
  spec.description = "scale-out throughput cell";
  spec.kind = sim::ScenarioSpec::Kind::kSweep;
  spec.apps = {app};
  spec.fabrics = {cluster::Fabric::kMot};
  spec.dram_presets = {mem::DramPreset::kDdr3_200ns};
  spec.has_golden = false;
  try {
    spec.power_states = {sim::power_state_by_name(cell.state)};
  } catch (const std::exception& e) {
    cell.error = e.what();
    return cell;
  }

  sim::ScenarioOptions sopt;
  sopt.scale = opt.scale;
  sopt.seed = opt.seed;
  sopt.threads = 1;  // one run per cell: thread pool would only add noise
  sopt.scheduler = opt.scheduler;
  sopt.timeout_seconds = opt.timeout_seconds;
  sopt.phase_timing = true;  // host-side clock reads; modeled metrics untouched

  try {
    const sim::ScenarioOutcome outcome = sim::run_scenario(spec, sopt);
    if (outcome.results.empty()) {
      cell.error = "grid expanded to zero runs";
      return cell;
    }
    if (!outcome.run_ok(0)) {
      cell.error = outcome.errors[0];
      return cell;
    }
    cell.cycles = outcome.results[0].cycles;
    cell.instructions = outcome.results[0].instructions;
    cell.wall_seconds = outcome.telemetry.wall_seconds;
    cell.cycles_per_second = outcome.telemetry.cycles_per_second();
    cell.phases = outcome.results[0].phase_seconds;
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  return cell;
}

sim::JsonObject scale_cell_to_json(const ScaleCell& c) {
  sim::JsonObject o;
  o.set("app", c.app)
      .set("cores", static_cast<std::uint64_t>(c.cores))
      .set("banks", static_cast<std::uint64_t>(c.banks))
      .set("state", c.state)
      .set("cycles", c.cycles)
      .set("instructions", c.instructions)
      .set("wall_seconds", c.wall_seconds)
      .set("setup_seconds", c.phases.setup)
      .set("cycles_per_second", c.cycles_per_second);
  // Telemetry-only extension: compare_scale_baseline reads known keys
  // only, so old baselines stay compatible.
  if (c.phases.valid) {
    sim::JsonObject p;
    p.set("workload", c.phases.workload)
        .set("coherence", c.phases.coherence)
        .set("fabric", c.phases.fabric)
        .set("l2", c.phases.l2)
        .set("dram", c.phases.dram);
    o.set_raw("phase_seconds", p.str());
  }
  return o;
}

std::string scale_report_json(const sim::ScenarioOptions& opt,
                              const std::vector<ScaleCell>& cells) {
  double total_wall = 0.0;
  std::uint64_t total_cycles = 0;
  sim::JsonArray arr;
  for (const ScaleCell& c : cells) {
    arr.push(scale_cell_to_json(c));
    total_wall += c.wall_seconds;
    total_cycles += c.cycles;
  }
  sim::JsonObject out;
  out.set("bench", "bench_scale")  // report id, kept for BENCH_scale.json
      .set("scheduler", cluster::scheduler_name(opt.scheduler))
      .set("scale", opt.scale)
      .set("seed", opt.seed)
      .set_raw("cells", arr.str(2))
      .set("total_wall_seconds", total_wall)
      .set("total_simulated_cycles", total_cycles)
      .set("cycles_per_second",
           total_wall > 0.0 ? static_cast<double>(total_cycles) / total_wall
                            : 0.0);
  return out.str();
}

struct BaselineCell {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double cycles_per_second = 0.0;
};

/// Exit code 3: the baseline cannot be used at all.
[[noreturn]] void baseline_error(const std::string& msg) {
  std::cerr << "baseline error: " << msg << "\n"
            << "refresh with: mot3d_experiments scale --baseline=<path> "
               "--update-baseline\n";
  std::exit(3);
}

int compare_scale_baseline(const CliArgs& cli, const sim::ScenarioOptions& opt,
                           const std::vector<ScaleCell>& cells) {
  const std::string& path = cli.baseline_path;
  std::ifstream in(path);
  if (!in) baseline_error("cannot open '" + path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::optional<sim::JsonValue> doc = sim::JsonReader(buf.str()).parse();
  if (!doc || doc->type != sim::JsonValue::Type::kObject) {
    baseline_error("'" + path + "' is not a JSON object");
  }

  // The baseline is only meaningful for the knobs it was recorded with.
  const sim::JsonValue* sched = doc->find("scheduler");
  const sim::JsonValue* scale = doc->find("scale");
  const sim::JsonValue* seed = doc->find("seed");
  const sim::JsonValue* cells_v = doc->find("cells");
  if (!sched || sched->type != sim::JsonValue::Type::kString || !scale ||
      scale->type != sim::JsonValue::Type::kNumber || !seed ||
      seed->type != sim::JsonValue::Type::kNumber || !cells_v ||
      cells_v->type != sim::JsonValue::Type::kArray) {
    baseline_error("'" + path + "' is missing required fields");
  }
  if (sched->string != cluster::scheduler_name(opt.scheduler) ||
      scale->number != opt.scale ||
      static_cast<std::uint64_t>(seed->number) != opt.seed) {
    baseline_error("baseline was recorded with --scheduler=" + sched->string +
                   " --scale=" + sim::json_number(scale->number) + " --seed=" +
                   std::to_string(static_cast<std::uint64_t>(seed->number)) +
                   "; rerun with matching flags or refresh it");
  }

  // Index baseline cells by (app, cores).  Modeled u64s round-trip exactly
  // through double for any value < 2^53 — far above any cell's budget.
  std::vector<std::pair<std::string, BaselineCell>> base;
  for (const sim::JsonValue& c : cells_v->array) {
    const sim::JsonValue* app = c.find("app");
    const sim::JsonValue* cores = c.find("cores");
    const sim::JsonValue* cycles = c.find("cycles");
    const sim::JsonValue* instrs = c.find("instructions");
    const sim::JsonValue* cps = c.find("cycles_per_second");
    if (!app || app->type != sim::JsonValue::Type::kString || !cores ||
        !cycles || !instrs || !cps) {
      baseline_error("malformed cell in '" + path + "'");
    }
    const std::string key =
        app->string + "@" +
        std::to_string(static_cast<std::size_t>(cores->number));
    base.emplace_back(key, BaselineCell{
        static_cast<std::uint64_t>(cycles->number),
        static_cast<std::uint64_t>(instrs->number), cps->number});
  }

  int regressions = 0;
  for (const ScaleCell& c : cells) {
    const std::string key = c.app + "@" + std::to_string(c.cores);
    const BaselineCell* b = nullptr;
    for (const auto& [k, v] : base) {
      if (k == key) { b = &v; break; }
    }
    if (b == nullptr) {
      baseline_error("cell " + key + " missing from '" + path +
                     "' (grid changed?)");
    }
    if (c.cycles != b->cycles || c.instructions != b->instructions) {
      std::cerr << "REGRESSION " << key << ": modeled drift — cycles "
                << c.cycles << " vs baseline " << b->cycles << ", instructions "
                << c.instructions << " vs " << b->instructions
                << " (simulator behaviour changed; refresh deliberately)\n";
      ++regressions;
      continue;
    }
    const double floor = b->cycles_per_second * (1.0 - cli.tolerance);
    if (c.cycles_per_second < floor) {
      std::cerr << "REGRESSION " << key << ": throughput "
                << sim::json_number(c.cycles_per_second)
                << " cycles/s below tolerance floor " << sim::json_number(floor)
                << " (baseline " << sim::json_number(b->cycles_per_second)
                << ", tolerance " << cli.tolerance << ")\n";
      ++regressions;
    }
  }
  if (regressions > 0) {
    std::cerr << regressions << " cell(s) regressed against '" << path << "'\n";
    return 1;
  }
  std::cout << "baseline OK: " << cells.size() << " cell(s) within tolerance "
            << cli.tolerance << "\n";
  return 0;
}

int cmd_scale(const CliArgs& cli) {
  if (!cli.names.empty()) {
    std::cerr << "error: scale takes flags only (got '" << cli.names.front()
              << "')\n";
    return 2;
  }
  if (cli.patterns == std::vector<std::string>{"help"}) {
    for (const std::string& n : workload::sharing_profile_names()) {
      std::cout << n << "\n";
    }
    return 0;
  }
  if (cli.update_baseline && cli.baseline_path.empty()) {
    std::cerr << "error: --update-baseline needs --baseline=<path>\n";
    return 2;
  }
  sim::ScenarioOptions opt = cli.run;
  if (!cli.scale_given) opt.scale = kScaleGridScale;

  std::vector<ScaleCell> cells;
  int failed = 0;
  std::cout << "scale: " << cli.cores.size() << " core count(s) x "
            << cli.patterns.size() << " pattern(s), scale=" << opt.scale
            << ", scheduler=" << cluster::scheduler_name(opt.scheduler) << "\n";
  std::cout << "  app                 cores   banks        cycles  "
            << "   wall_s    setup_s      cycles/s\n";
  for (const std::string& app : cli.patterns) {
    for (const std::size_t cores : cli.cores) {
      ScaleCell cell = run_scale_cell(opt, app, cores);
      if (!cell.error.empty()) {
        std::cerr << "FAILED " << app << "@" << cores << ": " << cell.error
                  << "\n";
        ++failed;
      } else {
        std::printf("  %-18s %6zu  %6zu  %12llu  %9.3f  %9.3f  %12.0f\n",
                    cell.app.c_str(), cell.cores, cell.banks,
                    static_cast<unsigned long long>(cell.cycles),
                    cell.wall_seconds, cell.phases.setup,
                    cell.cycles_per_second);
      }
      cells.push_back(std::move(cell));
    }
  }
  if (failed > 0) {
    std::cerr << failed << " cell(s) failed\n";
    return 1;
  }

  const std::string doc = scale_report_json(opt, cells);
  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "error: cannot write '" << opt.json_path << "'\n";
      return 1;
    }
    out << doc << "\n";
  }

  if (cli.baseline_path.empty()) return 0;
  if (cli.update_baseline) {
    std::ofstream out(cli.baseline_path);
    if (!out) {
      std::cerr << "error: cannot write '" << cli.baseline_path << "'\n";
      return 1;
    }
    out << doc << "\n";
    std::cout << "baseline updated: " << cli.baseline_path << "\n";
    return 0;
  }
  return compare_scale_baseline(cli, opt, cells);
}

int cmd_update_golden(const CliArgs& cli) {
  std::vector<std::string> names =
      cli.names.empty() ? sim::golden_scenario_names() : cli.names;
  std::error_code ec;
  std::filesystem::create_directories(cli.golden_dir, ec);
  for (const std::string& name : names) {
    const sim::ScenarioSpec* spec = sim::find_scenario(name);
    if (spec == nullptr || !spec->has_golden) {
      std::cerr << "error: '" << name << "' is not a golden scenario\n";
      return 2;
    }
    const sim::ScenarioOutcome out =
        sim::run_scenario(*spec, sim::golden_options(*spec));
    const std::string path = cli.golden_dir + "/" + name + ".json";
    std::ofstream f(path);
    if (!f) {
      std::cerr << "error: cannot write " << path << "\n";
      return 1;
    }
    f << sim::scenario_metrics_json(out);
    std::cout << "wrote " << path << " (" << (out.runs.empty()
                                                  ? out.timing_rows.size()
                                                  : out.results.size())
              << " entries)\n";
  }
  std::cout << "golden baselines updated — commit the diff together with the\n"
               "model change that motivated it (tests/test_golden_figures.cpp\n"
               "compares these files byte-for-byte under both schedulers).\n";
  return 0;
}

/// `check-golden` — the golden regression check as a CLI verb: re-run each
/// golden scenario at its pinned options and byte-compare against the
/// committed baseline.  Every failure path exits non-zero with one
/// structured "error: ..." line (missing file, mismatch, unknown name), so
/// scripts and CI steps can gate on it without parsing tables.
int cmd_check_golden(const CliArgs& cli) {
  std::vector<std::string> names =
      cli.names.empty() ? sim::golden_scenario_names() : cli.names;
  int failures = 0;
  for (const std::string& name : names) {
    const sim::ScenarioSpec* spec = sim::find_scenario(name);
    if (spec == nullptr || !spec->has_golden) {
      std::cerr << "error: '" << name << "' is not a golden scenario\n";
      return 2;
    }
    const std::string path = cli.golden_dir + "/" + name + ".json";
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::cerr << "error: missing golden baseline " << path
                << " (run update-golden " << name << ")\n";
      ++failures;
      continue;
    }
    std::ostringstream want;
    want << f.rdbuf();
    const sim::ScenarioOutcome out =
        sim::run_scenario(*spec, sim::golden_options(*spec));
    const std::string got = sim::scenario_metrics_json(out);
    if (got != want.str()) {
      std::cerr << "error: golden mismatch for " << name << " (" << path
                << "); inspect with update-golden --dir=<tmp> " << name
                << " and diff\n";
      ++failures;
      continue;
    }
    std::cout << "ok: " << name << " matches " << path << "\n";
  }
  if (failures > 0) {
    std::cerr << "error: " << failures << "/" << names.size()
              << " golden baselines failed\n";
    return 1;
  }
  return 0;
}

/// `serve` / `batch` — the sweep service (src/sim/sweep_service.hpp).
/// Modeled inputs (scale, seed, timeout) are per-request JSON fields, so
/// every run flag is rejected loudly: a --scale here would silently skew
/// what the cache memoizes.
int cmd_service(const CliArgs& cli, sim::ServiceLoopMode mode) {
  const char* verb = mode == sim::ServiceLoopMode::kServe ? "serve" : "batch";
  if (!cli.names.empty()) {
    std::cerr << "error: " << verb << " takes flags only (got '"
              << cli.names.front() << "')\n";
    return 2;
  }
  if (cli.cache_dir.empty()) {
    std::cerr << "error: " << verb << " needs --cache-dir=<path>\n";
    return 2;
  }
  sim::ServiceConfig cfg;
  cfg.cache_dir = cli.cache_dir;
  cfg.threads = cli.run.threads;
  cfg.scheduler = cli.run.scheduler;
  cfg.max_cache_bytes = cli.max_cache_bytes;
  sim::SweepService service(cfg);  // throws on unwritable cache dir
  if (!cli.requests_path.empty()) {
    std::ifstream f(cli.requests_path, std::ios::binary);
    if (!f) {
      std::cerr << "error: cannot read requests file '" << cli.requests_path
                << "'\n";
      return 2;
    }
    return sim::service_loop(f, std::cout, service, mode);
  }
  return sim::service_loop(std::cin, std::cout, service, mode);
}

/// `cache stats` / `cache clear` — one JSON line each, so scripts can gate
/// on the cache without scraping tables.
int cmd_cache(const CliArgs& cli) {
  if (cli.names.size() != 1 ||
      (cli.names.front() != "stats" && cli.names.front() != "clear")) {
    std::cerr << "error: cache takes one verb: stats|clear\n";
    return 2;
  }
  if (cli.cache_dir.empty()) {
    std::cerr << "error: cache " << cli.names.front()
              << " needs --cache-dir=<path>\n";
    return 2;
  }
  sim::ServiceConfig cfg;
  cfg.cache_dir = cli.cache_dir;
  sim::SweepService service(cfg);  // throws on unwritable cache dir
  sim::JsonObject o;
  o.set("cache_dir", cfg.cache_dir);
  if (cli.names.front() == "stats") {
    const sim::CacheStats stats = service.cache_stats();
    o.set("entries", stats.entries).set("bytes", stats.bytes);
  } else {
    o.set("removed", static_cast<std::uint64_t>(service.cache_clear()));
  }
  std::cout << o.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_cli_usage(std::cerr);
    return 2;
  }
  const std::string name = argv[1];
  if (name == "list" || name == "--list") return cmd_list();
  if (name == "--help" || name == "-h" || name == "help") {
    print_cli_usage(std::cout);
    return 0;
  }
  const std::string run_flags =
      "--scale --seed --threads --json --scheduler --timeout --trace --metrics";
  const char* golden_refusal =
      "; baselines always use each scenario's golden options";
  const char* service_refusal =
      "; scale/seed/timeout_seconds are per-request fields";
  const std::string service_flags =
      "--cache-dir --requests --max-cache-bytes --threads --scheduler";
  const Command commands[] = {
      {"describe", "", "", cmd_describe},
      {"run", run_flags + " --golden", nullptr, cmd_run},
      {"trace", run_flags + " --golden", nullptr, cmd_trace},
      {"grid", run_flags + " --apps --fabrics --states --dram", nullptr,
       cmd_grid},
      {"scale",
       "--scale --seed --scheduler --timeout --json --cores --patterns "
       "--baseline --update-baseline --tolerance",
       nullptr, cmd_scale},
      {"update-golden", "--dir", golden_refusal, cmd_update_golden},
      {"check-golden", "--dir", golden_refusal, cmd_check_golden},
      {"serve", service_flags, service_refusal,
       [](const CliArgs& cli) {
         return cmd_service(cli, sim::ServiceLoopMode::kServe);
       }},
      {"batch", service_flags, service_refusal,
       [](const CliArgs& cli) {
         return cmd_service(cli, sim::ServiceLoopMode::kBatch);
       }},
      {"cache", "--cache-dir", "", cmd_cache},
  };
  for (const Command& cmd : commands) {
    if (name != cmd.name) continue;
    try {
      const CliArgs cli = parse_cli(argc, argv, cmd);
      if (cli.help) {
        print_cli_usage(std::cout);
        return 0;
      }
      return cmd.body(cli);
    } catch (const std::invalid_argument& e) {
      // Malformed flag values, flags the command does not take, bad axis
      // keys.
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    } catch (const std::exception& e) {
      // Anything else that escapes a command body (a scenario whose every
      // run is isolated still throws on config errors, bad alloc, ...) —
      // one structured line, non-zero exit, never a silent stack unwind.
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  std::cerr << "error: unknown command '" << name << "'\n";
  print_cli_usage(std::cerr);
  return 2;
}
