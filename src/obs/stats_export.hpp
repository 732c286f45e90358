#pragma once

/// \file stats_export.hpp
/// Background telemetry exporter: the live-operations counterpart of the
/// post-hoc trace/postmortem artifacts (docs/OBSERVABILITY.md "Live
/// telemetry").
///
/// `SPIO_STATS=<interval_ms>:<path>` starts one background thread that
/// every `interval_ms` snapshots the metrics registry — counters, gauges,
/// and the windowed latency histograms — derives operator-facing rates
/// (QPS, cache hit-rate, coalesce rate, single-flight follower share,
/// SLO violations), and appends one compact JSON object per tick to
/// `<path>` (conventionally `stats.spio.jsonl`). Each line is written
/// with a single `fwrite` and flushed, so a concurrent tail — `spio_top`
/// — never sees a truncated record, and a crash loses at most the
/// in-progress tick. `spio_trace --check` validates the stream.
///
/// While the exporter runs, `obs::telemetry_running()` is true, which
/// flips the `stats_enabled()` gate at counter-publication sites: the
/// stats stream is populated without turning on tracing. After each
/// sample the exporter rotates every windowed histogram's epoch and
/// resets the `service.queue_depth_max` watermark, so quantiles and the
/// high-water gauge describe the last few windows, not all history.
///
/// `stop()` (idempotent; also registered via `atexit`) emits one final
/// sample marked `"final": true`, joins the thread, and closes the file.
///
/// Line schema (`"format": "spio.stats"`, `"version": 1`):
///   seq          monotonic sample index (0-based)
///   ts_us        obs::now_us() at sample time
///   interval_ms  configured tick; the qps denominator is the *actual*
///                elapsed time between samples
///   final        true only on the shutdown sample
///   derived      {qps, queue_depth, queue_depth_max, cache_hit_rate,
///                 coalesce_rate, singleflight_follower_share,
///                 slo_ms, slo_violations, slo_violations_total,
///                 read_amplification}  — read_amplification is the
///                *windowed* disk-bytes-per-returned-byte of this tick
///                (delta reader.bytes_read / delta reader.bytes_returned;
///                the `reader.read_amplification` gauge is the other
///                figure: cumulative particles scanned per returned)
///   hot_files    top-5 files by bytes scanned this tick, from the
///                spatial access profiler (access_profile.hpp):
///                [{file, dataset, bytes, accesses}]
///   windows      per windowed histogram: {count, mean, p50, p95, p99}
///                over the merged window, plus cumulative total_count
///   counters     every registry counter (cumulative values)
///   gauges       every registry gauge

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

#include <condition_variable>
#include <mutex>
#include <thread>

namespace spio::obs {

/// The per-query latency budget from `SPIO_SLO_MS`, in microseconds
/// (0 = unset). Read once per process; the query service counts
/// `service.slo_violations` against it.
std::uint64_t slo_budget_us();

class TelemetryExporter {
 public:
  /// Process-wide exporter (never destroyed; `stop()` is the shutdown).
  static TelemetryExporter& instance();

  /// Parse an `SPIO_STATS` spec `<interval_ms>:<path>`. Returns false
  /// (leaving outputs untouched) on a malformed spec: missing colon,
  /// non-numeric or non-positive interval, empty path.
  static bool parse_spec(std::string_view spec,
                         std::chrono::milliseconds& interval,
                         std::string& path);

  /// Start sampling every `interval` into `path` (truncates any existing
  /// file). Returns false if already running or the file cannot be
  /// opened. Registers an atexit stop on first successful start.
  bool start(std::chrono::milliseconds interval, std::string path);

  /// Emit the final sample, join the thread, close the file. Idempotent
  /// and safe to call when never started.
  void stop();

  bool running() const { return telemetry_running(); }
  const std::string& path() const { return path_; }

  /// Apply `SPIO_STATS` from the environment (no-op when unset or
  /// malformed, or when already running).
  void init_from_env();

 private:
  TelemetryExporter() = default;

  void run_loop();
  void emit_sample(bool final_sample);

  std::mutex mu_;               // guards start/stop transitions + cv
  std::condition_variable cv_;  // wakes the sampler for shutdown
  bool stop_requested_ = false;
  std::thread thread_;
  std::FILE* file_ = nullptr;
  std::string path_;
  std::chrono::milliseconds interval_{0};

  // Sampler-thread state (no locking needed once running).
  std::uint64_t seq_ = 0;
  double last_ts_us_ = 0;
  MetricsRegistry::Snapshot prev_;
  /// Previous tick's per-file (bytes_scanned, accesses) from the access
  /// profiler, keyed "<dataset>/<file>", for the hot_files deltas.
  std::unordered_map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      prev_hot_;
};

}  // namespace spio::obs
