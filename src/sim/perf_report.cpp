#include "sim/perf_report.hpp"

#include <charconv>
#include <cmath>
#include <fstream>

#include "common/json_escape.hpp"

namespace mot3d::sim {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);  // shortest round-trip
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  // Sequential appends: no operator+ temporaries on the serialisation path.
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

JsonObject& JsonObject::set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, json_string(value));
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, const char* value) {
  return set(key, std::string(value));
}

JsonObject& JsonObject::set(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::set_raw(const std::string& key, const std::string& raw_json) {
  fields_.emplace_back(key, raw_json);
  return *this;
}

JsonObject& JsonObject::merge(const JsonObject& other) {
  fields_.insert(fields_.end(), other.fields_.begin(), other.fields_.end());
  return *this;
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += json_escape(fields_[i].first);
    out += "\": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

JsonArray& JsonArray::push(const JsonObject& obj) {
  elements_.push_back(obj.str());
  return *this;
}

JsonArray& JsonArray::push_raw(const std::string& raw_json) {
  elements_.push_back(raw_json);
  return *this;
}

std::string JsonArray::str(int indent) const {
  if (indent < 0) {
    std::string out = "[";
    for (std::size_t i = 0; i < elements_.size(); ++i) {
      if (i > 0) out += ", ";
      out += elements_[i];
    }
    return out + "]";
  }
  if (elements_.empty()) return "[]";
  const std::string outer(static_cast<std::size_t>(indent), ' ');
  const std::string inner(static_cast<std::size_t>(indent) + 2, ' ');
  std::string out = "[\n";
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    out += inner + elements_[i];
    if (i + 1 < elements_.size()) out += ",";
    out += "\n";
  }
  return out + outer + "]";
}

bool write_perf_report(const std::string& path, const std::string& bench,
                       const PerfTelemetry& telemetry, JsonObject extra) {
  JsonObject obj;
  obj.set("bench", bench)
      .set("threads", telemetry.threads)
      .set("runs", telemetry.runs)
      .set("simulated_cycles", telemetry.simulated_cycles)
      .set("wall_seconds", telemetry.wall_seconds)
      .set("cycles_per_second", telemetry.cycles_per_second());
  obj.merge(extra);
  std::ofstream out(path);
  if (!out) return false;
  out << obj.str() << "\n";
  return static_cast<bool>(out);
}

}  // namespace mot3d::sim
