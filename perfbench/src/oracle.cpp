#include "oracle.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::optional<Pins> load_pins(const std::string& dir, const std::string& workload,
                              std::uint64_t seed) {
  const std::string path = dir + "/" + workload + ".tsv";
  std::ifstream f(path);
  if (!f) return std::nullopt;
  Pins pins;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::uint64_t s = 0;
    std::string key;
    Pin pin;
    if (!(is >> s >> key >> pin.sha256 >> pin.cycles >> pin.instructions) ||
        pin.sha256.size() != 64) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed pin line");
    }
    if (s == seed) pins[key] = pin;
  }
  if (pins.empty()) return std::nullopt;
  return pins;
}

std::string pin_line(std::uint64_t seed, const std::string& key, const Pin& pin) {
  return std::to_string(seed) + "\t" + key + "\t" + pin.sha256 + "\t" +
         std::to_string(pin.cycles) + "\t" + std::to_string(pin.instructions);
}

}  // namespace perfbench
