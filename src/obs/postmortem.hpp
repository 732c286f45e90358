#pragma once

/// \file postmortem.hpp
/// Automatic fault postmortems (docs/OBSERVABILITY.md).
///
/// On any failure path — a `checked_write_file` retry budget exhausted,
/// a reliable-exchange without an ACK, an injected phase death, or a
/// fatal signal —
/// the failing layer dumps a `postmortem.spio.json` bundle next to the
/// dataset:
///
///   {
///     "format": "spio.postmortem", "version": 1,
///     "reason": "...exception text...",
///     "failed_rank": 2, "phase": "data_write", "job_ranks": 4,
///     "metrics": { ...live MetricsRegistry snapshot... },
///     "flight_recorder": {
///       "capacity": 1024,
///       "ranks": [{"rank": 0, "recorded": n, "dropped": d,
///                  "events": [{"ts_us": ..., "type": "send",
///                              "name": "...", "a": ..., "b": ...,
///                              "detail": ...}, ...]}, ...]
///     },
///     ...caller sections (write_stats, config, fault_plan)...
///   }
///
/// `spio_trace --postmortem <bundle|dataset-dir>` renders a per-rank
/// timeline of the last events before death; `spio_trace --check`
/// validates the bundle. `check_and_repair(dir, /*remove_partial=*/true)`
/// and a successful journaled rewrite both remove stale bundles, so
/// recovered datasets stay byte-identical to golden runs.

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"

namespace spio::obs {

/// File name of the postmortem bundle inside a dataset directory.
inline constexpr const char* kPostmortemFile = "postmortem.spio.json";

/// Context a failing layer hands to `save_postmortem`. `sections` are
/// caller-supplied JSON objects appended at the top level (the writer
/// adds `write_stats`, `config` and `fault_plan`).
struct PostmortemInfo {
  std::string reason;
  int failed_rank = -1;
  std::string phase;
  int job_ranks = 0;
  std::vector<std::pair<std::string, JsonValue>> sections;
};

/// Dump the bundle (ring contents + live metric snapshot + caller
/// sections) to `dir / kPostmortemFile`. Serialized process-wide; when
/// several ranks fail, the last writer wins. Never throws — a
/// postmortem must not mask the original failure — and returns whether
/// the bundle was written.
bool save_postmortem(const std::filesystem::path& dir,
                     const PostmortemInfo& info) noexcept;

bool postmortem_present(const std::filesystem::path& dir);

/// Load and format-check the bundle. Throws `IoError` / `FormatError`.
JsonValue load_postmortem(const std::filesystem::path& dir);

/// The flight recorder rings as the bundle's `flight_recorder` section.
JsonValue flight_to_json(const std::vector<FlightRingSnapshot>& rings);

/// Structural validation used by `spio_trace --check`: returns one
/// human-readable problem per violation (empty = valid).
std::vector<std::string> validate_postmortem(const JsonValue& doc);

/// Best-effort black box on fatal signals (SEGV/BUS/FPE/ILL/ABRT):
/// dump a bundle to the registered directory, then re-raise with the
/// default disposition. The dump path is not async-signal-safe — it is
/// a last-gasp diagnostic, not a recovery mechanism. Idempotent.
void install_crash_handler();

/// Where the crash handler writes its bundle (typically the dataset
/// directory of the job in flight). Empty disables the dump.
void set_crash_dump_dir(const std::filesystem::path& dir);

}  // namespace spio::obs
