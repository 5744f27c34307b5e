// In-memory span recording for the benchmark's traced runs.
//
// Each span marks a layer boundary that the benchmark itself crosses:
// the benchmark wraps its own calls into the program's public functions
// (GenerateCandidates, BuildTableGraph, the search kernels, the wire
// protocol, ...). Nothing inside src/ is instrumented. Spans stay in
// per-thread memory while the workload runs and are written out once at
// the end; self times are computed offline (perfbench/stats.py).
#ifndef WEBTAB_PERFBENCH_SPANS_H_
#define WEBTAB_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One thread's spans. A null SpanLog* disables recording, so the
/// untraced path costs one branch per boundary.
class SpanLog {
 public:
  struct Span {
    const char* name;  // static string
    int32_t parent;    // index into this log, -1 for a root
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  /// Opens a span under the innermost span still open in this log.
  int32_t Begin(const char* name, uint64_t request) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    const int32_t id = Add(name, parent, request, NowNs(), 0);
    open_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    spans_[id].end_ns = NowNs();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  /// A span whose interval is already known, under an explicit parent
  /// (-1 for a root). Used where requests interleave on one thread.
  int32_t Add(const char* name, int32_t parent, uint64_t request,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{name, parent, request, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request)
      : log_(log), id_(log != nullptr ? log->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t id_;
};

/// Writes every log as tab-separated lines
///   id  parent  name  request  start_ns  end_ns
/// with ids made global across logs (parent -1 marks a root). Returns
/// false when the file cannot be written.
inline bool WriteSpans(const std::vector<const SpanLog*>& logs,
                       const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t base = 0;
  for (const SpanLog* log : logs) {
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const SpanLog::Span& s = log->spans()[i];
      std::fprintf(f, "%lld\t%lld\t%s\t%llu\t%lld\t%lld\n",
                   static_cast<long long>(base + static_cast<int64_t>(i)),
                   static_cast<long long>(s.parent < 0 ? -1
                                                       : base + s.parent),
                   s.name, static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    base += static_cast<int64_t>(log->spans().size());
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // WEBTAB_PERFBENCH_SPANS_H_
