// Sample statistics and the in-memory span log of the benchmark harness.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the number would describe one or two outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> samples);

/// Nearest-rank q-quantile (0.5 < q < 1), or nothing when fewer than
/// kMinSamplesBeyond samples rank above it.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

double max_of(const std::vector<double>& samples);

/// Milliseconds on the steady clock since an arbitrary process-wide origin.
double now_ms();

/// One recorded span. Times are steady-clock milliseconds; `parent` is the
/// index of the enclosing span in the log, or -1 for a root.
struct Span {
  std::string name;
  std::uint64_t trace_id = 0;
  int parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Thread-safe append-only span store, kept in memory until the run ends.
class SpanLog {
 public:
  /// Opens a span now and returns its index.
  int begin(std::string name, std::uint64_t trace_id, int parent = -1);
  void end(int index);
  /// Records a span whose interval was measured by the caller.
  int add(Span span);

  std::vector<Span> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-span self time: the span's duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// The span file: every span with its self time, plus per-name totals.
perfbg::obs::JsonValue spans_to_json(const std::vector<Span>& spans);

/// RAII span on an optional log; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t trace_id, int parent = -1)
      : log_(log), index_(log ? log->begin(name, trace_id, parent) : -1) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }
  void end() {
    if (log_ && index_ >= 0) log_->end(index_);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  int index_;
};

/// Deterministic generator for inputs (splitmix64).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [-1, 1).
  double symmetric();

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
