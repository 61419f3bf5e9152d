// In-memory span recorder for the traced (per-layer) run.
//
// Spans are recorded from the benchmark's own code around each call into
// a library layer: a name "<module>.<function>", start, end and the span
// that encloses it. They stay in memory and are written out as JSON when
// the run ends. A layer's self time is its span's duration minus the part
// its child spans cover. Recording is single-threaded (the benchmark's
// driving thread); when the tracer is disabled a span costs one branch.

#ifndef LAYERBENCH_TRACE_H_
#define LAYERBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace layerbench {

class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span nested in the innermost open one; returns its index.
  uint32_t Begin(const char* name);
  void End(uint32_t index);

  size_t span_count() const { return spans_.size(); }
  /// Drop every span from index `n` on (all of them closed).
  void Truncate(size_t n) { spans_.resize(n); }

  /// Write every span as JSON to `path`; false if the file cannot be
  /// written.
  bool Write(const std::string& path) const;

  /// One line per span name: count, total and self seconds, parent name.
  std::string Summary() const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    Tracer& t = Tracer::Get();
    if (t.enabled()) {
      active_ = true;
      index_ = t.Begin(name);
    }
  }
  ~ScopedSpan() {
    if (active_) Tracer::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  uint32_t index_ = 0;
};

}  // namespace layerbench

#endif  // LAYERBENCH_TRACE_H_
