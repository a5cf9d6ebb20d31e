// In-memory span recorder for the traced replays.
//
// The benchmark records a span around each call it makes into a layer:
// name, start, end, the span that caused it, and the request it belongs
// to. Spans stay in memory while the replay runs and are written once, at
// exit, as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing). A layer's self time is its span's duration minus the
// part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span; times are seconds since the tracer's epoch.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;   ///< index of the causing span, -1 for a root
  std::int64_t request = -1;  ///< request / unit id shared by its spans
  std::uint32_t thread = 0;   ///< small per-thread id for the trace viewer
};

/// Totals of every span with one name.
struct LayerTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< summed durations
  double self_s = 0.0;   ///< summed self times
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Seconds since the tracer was created.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Opens a span and returns its index (its id for children).
  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::int64_t request);
  /// Closes span `id` at the current time.
  void close(std::int64_t id);

  /// Duration of closed span `id`, seconds.
  double duration(std::int64_t id) const;

  /// Snapshot of all spans (call after every span closed).
  std::vector<Span> spans() const;

  /// Per-name totals with self times (children may run on other threads;
  /// their intervals are merged before being subtracted).
  std::map<std::string, LayerTotals> totals() const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction. A null tracer
/// records nothing, so untraced code paths share the same call sites.
class Scoped {
 public:
  Scoped(Tracer* tracer, const std::string& name, std::int64_t parent = -1,
         std::int64_t request = -1)
      : tracer_(tracer), id_(tracer ? tracer->open(name, parent, request) : -1) {}
  ~Scoped() {
    if (tracer_) tracer_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

/// Sum of the lengths of the union of [start, end) intervals, each clipped
/// to [lo, hi).
double covered_length(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

}  // namespace perfbench
