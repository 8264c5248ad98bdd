// In-memory span recording for the benchmark's traced run.
//
// A span is opened around each call the benchmark makes into a library's
// public functions (the layer boundaries). Spans live in memory while the
// run measures and are written out when it ends, so the only cost inside the
// timed region is two clock reads and a vector append per span. When the
// tracer is disabled a Scope costs one branch.
//
// The recorder is single-threaded: every span is opened and closed on the
// thread that drives the workload. Library calls that fan out to a thread
// pool (the sharded VANET step and link scan) are spanned from the caller.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< Static string: the layer boundary's name.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< Index of the enclosing span; -1 for a root.
  std::int64_t item = -1;    ///< Item id within the round; -1 outside items.
  std::int32_t round = 0;
};

class Tracer {
 public:
  bool enabled() const noexcept { return enabled_; }
  /// Enables recording; spans opened from now on carry `round`.
  void start_round(int round);
  void stop() noexcept { enabled_ = false; }

  /// Opens a span under the innermost open one. `item` >= 0 marks the span
  /// as an item and tags every span opened inside it with that id.
  std::int32_t open(const char* name, std::int64_t item = -1);
  void close(std::int32_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_ = false;
  std::int32_t round_ = 0;
  std::int64_t item_ = -1;
  std::vector<Span> spans_;
  /// Open spans, innermost last, each with the item id in force before it.
  std::vector<std::pair<std::int32_t, std::int64_t>> open_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class Scope {
 public:
  explicit Scope(const char* name, std::int64_t item = -1)
      : id_(tracer().enabled() ? tracer().open(name, item) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t id_;
};

/// Self time per span name, in milliseconds, over spans[first, last): each
/// span's duration minus the part of it its child spans cover.
std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans,
                                              std::size_t first,
                                              std::size_t last);

/// Empty when the span tree is well formed (every parent precedes its
/// children, children lie inside their parents, self times are >= 0);
/// otherwise a description of the first defect.
std::string check_span_tree(const std::vector<Span>& spans);

/// Writes one JSON object per span. Returns false on an I/O error.
bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
