#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval around a call into a layer. Names and categories are
/// string literals (they outlive the tracer).
struct Span {
  const char* name = "";
  const char* cat = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< 0 while the span is open
  int parent = -1;          ///< enclosing span id, -1 at top level
  int query = -1;           ///< query id shared by every span of one query
  int tid = 0;              ///< small per-thread number (trace viewer lane)
};

/// In-memory span recorder of the traced run. Begin claims a slot with one
/// atomic increment in a buffer sized up front, so recording from several
/// threads takes no lock; spans are only read after the recording threads
/// have finished. Spans beyond the capacity are counted as dropped.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; returns its id (-1 when the buffer is full).
  int Begin(const char* name, const char* cat, int parent, int query);
  /// Closes span `id` (ignored for -1). Must run on the thread that began it.
  void End(int id);

  /// Records a counter snapshot (a Chrome "C" event) at the current time.
  void Snapshot(const std::string& name, const std::map<std::string, double>& values);

  /// Every closed span, in begin order. Call only when no span is open.
  std::vector<Span> Spans() const;
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Writes spans and snapshots as a Chrome trace-event file (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Sample {
    std::string name;
    std::int64_t ts_ns;
    std::map<std::string, double> values;
  };

  const std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex samples_mu_;
  std::vector<Sample> samples_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* cat, int parent, int query)
      : tracer_(tracer), id_(tracer->Begin(name, cat, parent, query)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per span id: its duration minus the part of its interval that its child
/// spans cover (overlapping children count once). Indexed like `spans`.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

std::int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
