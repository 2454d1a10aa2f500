// Modeled-output oracle: per-cell pins of the SHA-256 of the canonical
// run_metrics_json plus simulated cycles and instructions, for the seeds
// listed in perfbench/digests/<workload>.tsv.  Simulated quantities are
// exact, so any difference is a modeled-output change, never noise.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace perfbench {

struct Pin {
  std::string sha256;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

/// Pins by cell key.
using Pins = std::map<std::string, Pin>;

/// Reads `<dir>/<workload>.tsv` (lines: seed, cell key, sha256, cycles,
/// instructions; '#' starts a comment).  Returns nullopt when the file has
/// no line for `seed`; throws std::runtime_error on a malformed line.
std::optional<Pins> load_pins(const std::string& dir, const std::string& workload,
                              std::uint64_t seed);

/// One pin line in the file format above.
std::string pin_line(std::uint64_t seed, const std::string& key, const Pin& pin);

}  // namespace perfbench
