#include "obs/metrics.hpp"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/json_escape.hpp"

namespace mot3d::obs {

namespace {

// Shortest round-trip formatting (std::to_chars), so the exported time
// series is a deterministic function of the sampled doubles alone.
void write_number(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "null";
    return;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  os.write(buf, res.ptr - buf);
}

}  // namespace

void MetricsRegistry::add(std::string name, std::function<double()> probe,
                          std::function<bool()> empty) {
  Counter c;
  c.name = std::move(name);
  c.probe = std::move(probe);
  c.empty = std::move(empty);
  c.series.reserve(16);
  counters_.push_back(std::move(c));
}

void MetricsRegistry::sample(Cycle now) {
  for (const auto& hook : prepare_) hook();
  cycles_.push_back(now);
  for (Counter& c : counters_) {
    const bool is_empty = c.empty && c.empty();
    c.series.push_back(is_empty ? std::numeric_limits<double>::quiet_NaN()
                                : c.probe());
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"cycles\":[";
  for (std::size_t s = 0; s < cycles_.size(); ++s) {
    if (s != 0) os << ',';
    os << cycles_[s];
  }
  os << "],\"counters\":{";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (i != 0) os << ',';
    os << "\n  \"" << json_escape(counters_[i].name) << "\":[";
    for (std::size_t s = 0; s < counters_[i].series.size(); ++s) {
      if (s != 0) os << ',';
      write_number(os, counters_[i].series[s]);
    }
    os << ']';
  }
  os << "\n}}";
}

void MetricsRegistry::write_csv_rows(std::ostream& os,
                                     const std::string& run) const {
  for (std::size_t s = 0; s < cycles_.size(); ++s) {
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      os << run << ',' << cycles_[s] << ',' << counters_[i].name << ',';
      const double v = counters_[i].series[s];
      if (!std::isnan(v)) write_number(os, v);
      os << '\n';
    }
  }
}

}  // namespace mot3d::obs
