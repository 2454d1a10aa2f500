#include "spans.hpp"

#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool SpanLog::write_json(const std::string& path,
                         const std::string& header_json) const {
  std::unordered_map<std::uint32_t, std::int64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent] += ns_between(s.begin, s.end);
  }
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  f << "{\"header\": " << header_json << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = ns_between(s.begin, s.end);
    const auto it = child_ns.find(s.id);
    const std::int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
    f << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"name\": " << quoted(s.name) << ", \"label\": " << quoted(s.label)
      << ", \"start_ns\": " << ns_between(origin_, s.begin)
      << ", \"end_ns\": " << ns_between(origin_, s.end)
      << ", \"self_ns\": " << self << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << " ]}\n";
  return static_cast<bool>(f.flush());
}

}  // namespace perfbench
