#pragma once

/// \file run_record.hpp
/// Darshan-style per-run record: `trace.spio.json`, written next to a
/// dataset by the writer so the dataset is self-describing —
/// configuration, per-rank per-phase seconds, and a counter dump survive
/// after the job is gone.
///
/// Layout (one JSON object):
///
///   {
///     "format": "spio.run_record", "version": 1,
///     "write": {
///       "ranks": 8, "schema_bytes": 124, "partition_count": 4,
///       "config": {"factor": "2x2x1", ...},
///       "phase_seconds": [{"rank": 0, "setup": ..., ...}, ...],
///       "totals": {"bytes_written": ..., ...},
///       "counters": {"writer.bytes_written": ..., ...},
///       "environment": {"threads_as_ranks": true, ...}
///     }
///   }
///
/// Emission is gated on `obs::run_records_enabled()` so default runs
/// (golden-format and chaos byte-identity tests among them) leave the
/// dataset directory untouched.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace spio::obs {

/// File name of the run record inside a dataset directory.
inline constexpr const char* kRunRecordFile = "trace.spio.json";

/// One rank's write-pipeline phase seconds (mirrors `WriteStats` times).
struct WritePhaseSeconds {
  int rank = 0;
  double setup = 0;
  double meta_exchange = 0;
  double particle_exchange = 0;
  double reorder = 0;
  double file_io = 0;
  double metadata_io = 0;
};

/// The writer's contribution to the record.
struct WriteRunInfo {
  int ranks = 0;
  std::uint64_t schema_bytes = 0;
  int partition_count = 0;
  /// Flat config echo (factor, adaptive, lod, checksums, ...).
  std::map<std::string, std::string> config;
  std::vector<WritePhaseSeconds> phases;  // one entry per rank
  struct Totals {
    std::uint64_t particles_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t particles_written = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t files_written = 0;
  } totals;
  /// Per-partition load balance (the paper's §6 adaptive-aggregation
  /// motivation, measured): filled by rank 0 at commit from the
  /// per-file particle counts. `imbalance` = max/mean (1.0 = perfectly
  /// balanced); mirrored into the `write.partition_*` gauges.
  struct LoadBalance {
    std::uint64_t partition_particles_max = 0;
    double partition_particles_mean = 0;
    double imbalance = 0;
  } load_balance;
};

/// Write (or overwrite) the record's `write` section, replacing any
/// existing record — a rewrite of the dataset restarts its history.
void save_write_record(const std::filesystem::path& dataset_dir,
                       const WriteRunInfo& info,
                       const MetricsRegistry::Snapshot& metrics);

/// True when `dataset_dir` holds a run record.
bool run_record_present(const std::filesystem::path& dataset_dir);

/// Load and validate the record. Throws `IoError` / `FormatError`.
JsonValue load_run_record(const std::filesystem::path& dataset_dir);

/// Counter/gauge snapshot rendered as a flat JSON object (histograms
/// become `{count, sum, buckets: [[bound, n], ...]}` objects).
JsonValue metrics_to_json(const MetricsRegistry::Snapshot& snapshot);

}  // namespace spio::obs
