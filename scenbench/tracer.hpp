// Spans for the scenario benchmark's traced run. The benchmark opens a
// span around each public call it makes into a layer (a scenario run, a
// chip build, a snapshot save, a fleet campaign, ...); spans nest on a
// stack, stay in memory, and are written out when the run ends. Spans
// inside the program are not recorded here.
//
// A Scope always measures its duration -- the benchmark's per-layer
// numbers come from the same timers -- and records a span only when the
// tracer is enabled, so an untraced run pays one clock read per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace scenbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;  ///< -1 for a root span
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    htpb::json::Object counts;
  };

  /// Starts with recording off.
  explicit Tracer(std::string workload)
      : workload_(std::move(workload)), t0_(now_ns()) {}

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      start_ = now_ns();
      if (tracer_.enabled_) {
        index_ = static_cast<int>(tracer_.spans_.size());
        Span span;
        span.name = std::move(name);
        span.id = index_;
        span.parent = tracer_.stack_.empty() ? -1 : tracer_.stack_.back();
        span.start_ns = start_ - tracer_.t0_;
        tracer_.spans_.push_back(std::move(span));
        tracer_.stack_.push_back(index_);
      }
    }
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (idempotent) and returns its duration in ms.
    double stop() {
      if (open_) {
        const std::int64_t end = now_ns();
        ms_ = static_cast<double>(end - start_) / 1e6;
        if (index_ >= 0) {
          tracer_.spans_[static_cast<std::size_t>(index_)].end_ns =
              end - tracer_.t0_;
          tracer_.stack_.pop_back();
        }
        open_ = false;
      }
      return ms_;
    }

    /// Attaches a count to the span (dropped when tracing is off).
    void count(std::string_view key, htpb::json::Value value) {
      if (index_ >= 0) {
        tracer_.spans_[static_cast<std::size_t>(index_)].counts[key] =
            std::move(value);
      }
    }

   private:
    Tracer& tracer_;
    int index_ = -1;
    std::int64_t start_ = 0;
    double ms_ = 0.0;
    bool open_ = true;
  };

  /// Switch recording on or off between spans (never while one is open).
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Self time per span name, in ms: each span's duration minus the part
  /// of it its child spans cover, summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns -
                                         child_ns[static_cast<std::size_t>(
                                             s.id)]) /
                     1e6;
    }
    return out;
  }

  [[nodiscard]] htpb::json::Value to_json() const {
    htpb::json::Array spans;
    for (const Span& s : spans_) {
      htpb::json::Object o;
      o["name"] = htpb::json::Value(s.name);
      o["id"] = htpb::json::Value(s.id);
      o["parent"] = htpb::json::Value(s.parent);
      o["workload"] = htpb::json::Value(workload_);
      o["start_ns"] = htpb::json::Value(static_cast<long long>(s.start_ns));
      o["end_ns"] = htpb::json::Value(static_cast<long long>(s.end_ns));
      o["counts"] = htpb::json::Value(s.counts);
      spans.push_back(htpb::json::Value(std::move(o)));
    }
    htpb::json::Object doc;
    doc["workload"] = htpb::json::Value(workload_);
    doc["spans"] = htpb::json::Value(std::move(spans));
    return htpb::json::Value(std::move(doc));
  }

 private:
  std::string workload_;
  bool enabled_ = false;
  std::int64_t t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace scenbench
