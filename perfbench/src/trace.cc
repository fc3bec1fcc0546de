#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "stats.h"

namespace perfbench {

namespace {

int ThreadNumber() {
  static std::atomic<int> next{0};
  thread_local int number = next.fetch_add(1, std::memory_order_relaxed);
  return number;
}

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(std::size_t capacity) : origin_ns_(NowNs()), spans_(capacity) {}

int Tracer::Begin(const char* name, const char* cat, int parent, int query) {
  std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Span& s = spans_[slot];
  s.name = name;
  s.cat = cat;
  s.parent = parent;
  s.query = query;
  s.tid = ThreadNumber();
  s.start_ns = NowNs();
  return static_cast<int>(slot);
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

void Tracer::Snapshot(const std::string& name, const std::map<std::string, double>& values) {
  std::lock_guard<std::mutex> lock(samples_mu_);
  samples_.push_back(Sample{name, NowNs(), values});
}

std::vector<Span> Tracer::Spans() const {
  std::size_t n = std::min(next_.load(std::memory_order_acquire), spans_.size());
  return std::vector<Span>(spans_.begin(), spans_.begin() + static_cast<long>(n));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<Span> spans = Spans();
  std::vector<std::int64_t> self = SelfTimes(spans);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"query\": %d, \"self_us\": %.3f}}",
                 first ? "" : ",\n", JsonString(s.name).c_str(),
                 JsonString(s.cat).c_str(), s.tid,
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.query,
                 static_cast<double>(self[i]) / 1e3);
    first = false;
  }
  std::lock_guard<std::mutex> lock(samples_mu_);
  for (const Sample& sample : samples_) {
    std::string args;
    for (const auto& [key, value] : sample.values) {
      if (!args.empty()) args += ", ";
      args += JsonString(key) + ": " + JsonNumber(value);
    }
    std::fprintf(f, "%s{\"name\": %s, \"ph\": \"C\", \"pid\": 1, \"ts\": %.3f, "
                 "\"args\": {%s}}",
                 first ? "" : ",\n", JsonString(sample.name).c_str(),
                 static_cast<double>(sample.ts_ns - origin_ns_) / 1e3, args.c_str());
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (int c : children[i]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      std::int64_t lo = std::max(child.start_ns, s.start_ns);
      std::int64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) union_ns += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

}  // namespace perfbench
