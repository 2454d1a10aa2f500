#include "obs/trace.hpp"

#include <sstream>

#include "common/json_escape.hpp"

namespace mot3d::obs {

namespace {

void write_event_json(std::ostream& os, const TraceEvent& e,
                      std::uint32_t pid) {
  os << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"" << e.phase
     << "\",\"ts\":" << e.ts;
  if (e.phase == 'X') os << ",\"dur\":" << e.dur;
  os << ",\"pid\":" << pid << ",\"tid\":" << e.track;
  if (e.phase == 'i') os << ",\"s\":\"t\"";
  if (e.key1 != nullptr || e.key2 != nullptr) {
    os << ",\"args\":{";
    bool first = true;
    if (e.key1 != nullptr) {
      os << '"' << json_escape(e.key1) << "\":" << e.val1;
      first = false;
    }
    if (e.key2 != nullptr) {
      if (!first) os << ',';
      os << '"' << json_escape(e.key2) << "\":" << e.val2;
    }
    os << '}';
  }
  os << '}';
}

void write_metadata(std::ostream& os, const char* kind, std::uint32_t pid,
                    std::uint32_t tid, bool with_tid, const std::string& name,
                    bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << "{\"name\":\"" << kind << "\",\"ph\":\"M\",\"pid\":" << pid;
  if (with_tid) os << ",\"tid\":" << tid;
  os << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
}

}  // namespace

TraceBuffer::TraceBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ > 0) events_.reserve(capacity_);
}

std::uint32_t TraceBuffer::add_track(std::string name) {
  tracks_.push_back(std::move(name));
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void TraceBuffer::push(const TraceEvent& e) {
  ++recorded_;
  if (capacity_ == 0 || events_.size() < capacity_) {
    events_.push_back(e);
    return;
  }
  events_[head_] = e;  // drop-oldest ring
  head_ = (head_ + 1) % capacity_;
}

const TraceEvent& TraceBuffer::event(std::size_t i) const {
  if (capacity_ == 0 || events_.size() < capacity_) return events_[i];
  return events_[(head_ + i) % capacity_];
}

void TraceBuffer::append_json_events(std::ostream& os, std::uint32_t pid,
                                     bool& first) const {
  for (std::size_t i = 0; i < size(); ++i) {
    if (!first) os << ",\n";
    first = false;
    write_event_json(os, event(i), pid);
  }
}

std::string TraceBuffer::flight_dump(std::size_t max_events) const {
  const std::size_t n = size() < max_events ? size() : max_events;
  std::ostringstream os;
  os << "-- flight recorder (last " << n << " of " << recorded_
     << " events) --\n";
  for (std::size_t i = size() - n; i < size(); ++i) {
    const TraceEvent& e = event(i);
    os << "  cycle " << e.ts;
    if (e.phase == 'X') os << "+" << e.dur;
    os << " [" << (e.track < tracks_.size() ? tracks_[e.track] : "?") << "] "
       << e.name;
    if (e.key1 != nullptr) os << ' ' << e.key1 << '=' << e.val1;
    if (e.key2 != nullptr) os << ' ' << e.key2 << '=' << e.val2;
    os << '\n';
  }
  return os.str();
}

void write_chrome_trace(
    std::ostream& os,
    const std::vector<std::pair<std::string, const TraceBuffer*>>& runs) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t pid = 0; pid < runs.size(); ++pid) {
    const auto& [name, buf] = runs[pid];
    const std::uint32_t p = static_cast<std::uint32_t>(pid);
    write_metadata(os, "process_name", p, 0, false, name, first);
    for (std::uint32_t t = 0; t < buf->track_count(); ++t) {
      write_metadata(os, "thread_name", p, t, true, buf->track_name(t), first);
    }
    buf->append_json_events(os, p, first);
  }
  os << "\n]}\n";
}

}  // namespace mot3d::obs
