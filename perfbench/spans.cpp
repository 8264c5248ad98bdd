#include "spans.h"

#include <chrono>
#include <fstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::start_round(int round) {
  enabled_ = true;
  round_ = round;
}

std::int32_t Tracer::open(const char* name, std::int64_t item) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back().first;
  span.round = round_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.emplace_back(id, item_);
  if (item >= 0) item_ = item;
  span.item = item_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return id;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  item_ = open_.back().second;
  open_.pop_back();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

namespace {

/// Summed duration of each span's direct children. Spans of one thread
/// never overlap their siblings, so this is the part of the parent the
/// children cover.
std::vector<std::int64_t> child_ns(const std::vector<Span>& spans,
                                   std::size_t first, std::size_t last) {
  std::vector<std::int64_t> covered(last - first, 0);
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= first && p < last) covered[p - first] += s.end_ns - s.start_ns;
  }
  return covered;
}

}  // namespace

std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans,
                                              std::size_t first,
                                              std::size_t last) {
  const auto covered = child_ns(spans, first, last);
  std::map<std::string, double> out;
  for (std::size_t i = first; i < last; ++i) {
    const Span& s = spans[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns -
                                       covered[i - first]) /
                   1e6;
  }
  return out;
}

std::string check_span_tree(const std::vector<Span>& spans) {
  const auto covered = child_ns(spans, 0, spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string where = "span " + std::to_string(i) + " (" + s.name + ")";
    if (s.end_ns < s.start_ns) return where + " ends before it starts";
    if (s.parent >= 0) {
      if (static_cast<std::size_t>(s.parent) >= i) {
        return where + " precedes its parent";
      }
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        return where + " lies outside its parent";
      }
      if (s.round != p.round) return where + " crosses a round";
    }
    if (s.end_ns - s.start_ns < covered[i]) {
      return where + " has negative self time";
    }
  }
  return {};
}

bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path, std::ios::trunc);
  for (const Span& s : spans) {
    os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
       << ",\"item\":" << s.item << ",\"round\":" << s.round << "}\n";
  }
  os.flush();
  return static_cast<bool>(os);
}

}  // namespace perfbench
