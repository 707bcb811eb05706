// Spans recorded around the benchmark's calls into each layer.
//
// A span has a name, a start, an end, the span that caused it and an
// incident id shared by every span of one spike's detection chain.  Spans
// stay in memory and are written as JSON lines when the run ends.  A
// disabled tracer records nothing: the untraced run that gives the
// end-to-end metrics pays one predictable branch per call site.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace e2e {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  SpanId parent = kNoSpan;
  std::int64_t incident = -1;
};

class Tracer {
 public:
  Tracer(bool enabled, std::uint32_t sample_every)
      : enabled_(enabled), sample_every_(sample_every) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Per-packet call sites trace one call in `sample_every`.
  [[nodiscard]] bool sample() noexcept {
    if (!enabled_) return false;
    if (++tick_ < sample_every_) return false;
    tick_ = 0;
    return true;
  }

  SpanId open(const char* name, SpanId parent = kNoSpan,
              std::int64_t incident = -1) {
    if (!enabled_) return kNoSpan;
    spans_.push_back(Span{name, now_ns(), 0, parent, incident});
    return static_cast<SpanId>(spans_.size());
  }

  void close(SpanId id) {
    if (id != kNoSpan) spans_[id - 1].end = now_ns();
  }

  /// A span whose interval was measured elsewhere (e.g. a digest's emit
  /// time to its dequeue).
  SpanId record(const char* name, std::int64_t start, std::int64_t end,
                SpanId parent = kNoSpan, std::int64_t incident = -1) {
    if (!enabled_) return kNoSpan;
    spans_.push_back(Span{name, start, end, parent, incident});
    return static_cast<SpanId>(spans_.size());
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time of every span named `name`: its duration minus the part
  /// its children cover (children are assumed not to overlap each other).
  [[nodiscard]] std::vector<double> self_times(const std::string& name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoSpan) child_ns[s.parent - 1] += s.end - s.start;
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        out.push_back(static_cast<double>(spans_[i].end - spans_[i].start -
                                          child_ns[i]));
      }
    }
    return out;
  }

  /// Root spans per incident id (a complete tree has exactly one).
  [[nodiscard]] std::map<std::int64_t, std::size_t> incident_roots() const {
    std::map<std::int64_t, std::size_t> roots;
    for (const Span& s : spans_) {
      if (s.incident >= 0 && s.parent == kNoSpan) ++roots[s.incident];
    }
    return roots;
  }

  bool write_jsonl(const std::string& path) const {
    std::ofstream f(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
        << "\",\"start\":" << s.start << ",\"end\":" << s.end
        << ",\"parent\":" << s.parent << ",\"incident\":" << s.incident
        << "}\n";
    }
    return f.good();
  }

 private:
  bool enabled_;
  std::uint32_t sample_every_;
  std::uint32_t tick_ = 0;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, SpanId parent = kNoSpan,
             std::int64_t incident = -1)
      : t_(t), id_(t.open(name, parent, incident)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] SpanId id() const noexcept { return id_; }

 private:
  Tracer& t_;
  SpanId id_;
};

}  // namespace e2e
