#pragma once

/// \file metrics.hpp
/// Typed metric registry: counters, gauges, and fixed log2-bucket
/// histograms, addressed by dotted names.
///
/// Naming scheme (`<subsystem>.<what>`, see docs/OBSERVABILITY.md):
///   writer.*    — the two-phase write pipeline (writer.bytes_sent,
///                 writer.bytes_written, writer.files_written, ...)
///   reader.*    — Dataset queries and direct file reads
///                 (reader.files_opened, reader.bytes_read,
///                 reader.read_amplification, ...)
///   simmpi.*    — transport (simmpi.msg_count, simmpi.bytes_sent,
///                 simmpi.recv_wait_us, simmpi.collectives, ...)
///   faultsim.*  — reliability layer (faultsim.retries,
///                 faultsim.rewrites, faultsim.exchanges, ...)
///   baseline.*  — the comparison formats (baseline.bytes_written, ...)
///
/// Metric objects are registered on first use and never destroyed or
/// re-created, so call sites may cache references
/// (`static auto& c = MetricsRegistry::global().counter("x");`) and hit
/// a single relaxed atomic add afterwards. `reset()` zeroes values but
/// keeps every registered object valid.
///
/// The registry itself is always live; *hot-path* call sites (per-message
/// transport counters) additionally gate on `obs::enabled()` so the
/// disabled build stays at one atomic load per site. One-shot accounting
/// (a write's final WriteStats publication) is unconditional.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "obs/windowed_histogram.hpp"

namespace spio::obs {

/// Monotonic event/volume counter.
class Counter {
 public:
  void add(std::uint64_t d = 1) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (ratios, levels, configuration echoes).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  /// Raise the gauge to `v` if `v` is larger (high-water marks, e.g.
  /// `service.queue_depth_max`). Concurrent set_max calls keep the max;
  /// a plain `set` still overwrites — the exporter uses that to reset
  /// the watermark each sampling window.
  void set_max(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over unsigned values with fixed log2 buckets: bucket `i`
/// counts observations `v` with `bit_width(v) == i`, i.e. bucket 0 holds
/// the zeros and bucket i >= 1 holds [2^(i-1), 2^i). 65 buckets cover
/// the whole u64 range — message sizes, file sizes, retry latencies all
/// fit without configuration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) {
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket `i` (2^i - 1; bucket 0 -> 0).
  static std::uint64_t bucket_bound(std::size_t i) {
    return i == 0 ? 0
           : i >= 64
               ? ~std::uint64_t{0}
               : (std::uint64_t{1} << i) - 1;
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Name-addressed metric directory. Lookup takes a lock; cache the
/// returned reference at the call site.
class MetricsRegistry {
 public:
  /// The process-wide registry all built-in instrumentation uses.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  /// Sliding-window histogram for live quantiles (service latencies);
  /// same registration semantics as the cumulative kinds.
  WindowedHistogram& windowed(std::string_view name);

  /// Point-in-time copy of every metric, names sorted (map order).
  struct HistogramData {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// (bucket upper bound, count) for non-empty buckets only.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };
  /// Merged-window view of a WindowedHistogram at snapshot time.
  struct WindowedData {
    std::uint64_t count = 0;       ///< samples in the merged window
    std::uint64_t sum = 0;         ///< their sum
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t total_count = 0; ///< cumulative since start
    std::uint64_t total_sum = 0;
  };
  struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;
    std::map<std::string, WindowedData> windows;
  };
  Snapshot snapshot() const;

  /// Advance every windowed histogram's epoch (exporter tick).
  void rotate_windows();

  /// Zero every metric's value. Registered objects (and cached
  /// references to them) stay valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>, std::less<>>
      windows_;
};

/// Add `delta` to the global counter `name` when the stats gate
/// (`stats_enabled()`) is up; a zero delta is skipped before the
/// registry lookup.
inline void publish_counter(std::string_view name, std::uint64_t delta) {
  if (delta == 0 || !stats_enabled()) return;
  MetricsRegistry::global().counter(name).add(delta);
}

}  // namespace spio::obs
