#pragma once

/// \file workloads.hpp
/// The three benchmark workloads. Each runs a fixed, seeded op sequence,
/// checks every op's output outside its timed interval, and fills the
/// report with the end-to-end metrics (untraced run) or the per-layer
/// metrics (traced run).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace perfbench {

/// What every workload measures for its end-to-end metrics.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one entry per repeated set-up
  std::vector<double> op_ms;    ///< latency of every timed op
  double wall_s = 0;            ///< wall time of the timed op sequence
  double cpu_s = 0;             ///< process CPU over the timed ops
  double user_bytes = 0;        ///< bytes written / returned by the ops
  double peak_rss_mb = 0;
  std::uint64_t scanned = 0;    ///< ReadStats records scanned
  std::uint64_t returned = 0;   ///< ReadStats records returned
  double disk_bytes = 0;        ///< dataset bytes on disk
  double dataset_user_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Op count of a workload for a run of `seconds`: a fixed nominal rate
/// times the run length, so every run on every host does the same work.
std::size_t op_count(double ops_per_second, int seconds);

/// Number of set-ups timed per run; `setup_s` is their median.
inline constexpr int kSetupRepeats = 3;

/// Time `setup` (which returns its own duration in seconds) in
/// `kSetupRepeats - 1` forked children, one after another, and then once
/// in this process, which keeps its result. Every set-up starts from a
/// fresh process, and the timed ops run on a heap that only one set-up
/// touched. Must be called before this process starts any thread.
std::vector<double> time_setups(const std::function<double(int rep)>& setup);

/// Emit the end-to-end metrics (and the tail percentile header line).
void report_end_to_end(Report& r, const EndToEnd& e);

/// Every per-layer metric name with its unit, in report order. Layers a
/// workload does not drive report 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Per-layer values of one traced run, keyed by metric name.
using LayerValues = std::vector<std::pair<std::string, double>>;
void report_per_layer(Report& r, const LayerValues& values);

/// Run one workload; returns the op tallies for the result line.
EndToEnd run_checkpoint(const Args& a, Report& r, LayerValues* layers);
EndToEnd run_explore(const Args& a, Report& r, LayerValues* layers);
EndToEnd run_serve(const Args& a, Report& r, LayerValues* layers);

}  // namespace perfbench
