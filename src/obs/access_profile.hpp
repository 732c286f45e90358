#pragma once

/// \file access_profile.hpp
/// Spatial access profiler (docs/OBSERVABILITY.md "Spatial access
/// profiles"): Darshan-style per-file I/O attribution for the read path.
///
/// Every byte the read path moves is attributed to the partition — data
/// file index plus bounding box — it came from. The accounting has two
/// tiers:
///
///   1. **Always-on per-file slots.** Each data file of every opened
///      dataset owns a fixed slot of relaxed `std::atomic` counters
///      (access count, bytes scanned / fetched-from-disk / surviving the
///      filter, cache-outcome tallies, a log2 fetch-latency histogram,
///      last-touch timestamp) — the same discipline as the flight
///      recorder: a handful of relaxed RMWs per file of a read, fed by
///      one `record_access` call once the file is fetched and filtered
///      (one slot bounds check, one detailed-mode lock), bounded
///      by the profile perf floor (tests/perf/profile_overhead_test.cpp,
///      <= 3% of readpath throughput). `set_enabled(false)` is the kill
///      switch the floor test measures against.
///
///   2. **Detailed per-query records**, gated by `SPIO_PROFILE=<path>`:
///      each query additionally accumulates a compact record — files
///      touched with their per-file byte split, a fetch/filter/merge
///      time breakdown, and the request ID linking it to trace spans and
///      log lines. At process exit (or an explicit `write()`) the
///      profiler serializes the per-file slots joined with their
///      partition bboxes — the spatial heatmap — plus the query records
///      as `profile.spio.json` (`"format":"spio.access_profile"`).
///      Rendered by `spio_heatmap`, summarized by `spio_inspect`,
///      validated by `spio_trace --check`.
///
/// Byte semantics (pinned by the oracle differential suite in
/// tests/obs/access_profile_test.cpp):
///   - `bytes_scanned`  — every byte materialized for the caller,
///     whether it came from disk, the prefix cache, or a single-flight
///     leader (= `want * record_size` per access).
///   - `bytes_fetched`  — bytes actually read from disk: bypass and
///     single-flight-leader (miss) accesses only. Cache hits and
///     followers add nothing, so coalesced readers never double-count —
///     `bytes_fetched` matches an instrumented `ReadEngine::FetchHook`
///     byte-for-byte.
///   - `bytes_used`     — records surviving the query's filter times the
///     record size (for whole-file fast paths and direct file reads:
///     the whole prefix).
/// Read amplification falls out per file and per query as
/// `bytes_fetched / bytes_used` (disk amplification; 0 for fully-warm
/// traffic) and `bytes_scanned / bytes_used` (scan amplification, the
/// `ReadStats::read_amplification` analogue).

#include <atomic>
#include <cstdint>
#include <optional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_context.hpp"
#include "util/box.hpp"

namespace spio::obs {

/// How a profiled fetch was satisfied. Values mirror the read engine's
/// `CacheOutcome` (core/read_engine.hpp) so call sites can cast.
enum class AccessOutcome : std::uint8_t {
  kBypass = 0,    ///< cache disabled: a plain disk read
  kHit = 1,       ///< served from the prefix cache
  kMiss = 2,      ///< single-flight leader: did the disk read
  kFollower = 3,  ///< joined another query's in-flight read
};

class AccessProfiler {
 public:
  /// Slots across all registered datasets; registrations past the cap
  /// are refused (their traffic counts into `unattributed()`).
  static constexpr int kMaxSlots = 8192;
  /// log2(us) fetch-latency buckets; bucket i covers [2^(i-1), 2^i) us
  /// like metrics.hpp histograms, the last bucket absorbs the tail.
  static constexpr int kLatencyBuckets = 28;
  /// Detailed mode keeps at most this many finished query records; the
  /// surplus of a long serve run is counted in `queries_dropped`.
  static constexpr std::size_t kMaxQueryRecords = 8192;

  /// The process-wide profiler (thread-safe magic static). Reads
  /// `SPIO_PROFILE` once on construction.
  static AccessProfiler& instance();

  /// Static description of one data file, captured at registration.
  struct FileInfo {
    std::string name;
    Box3 bounds;
    std::uint64_t particle_count = 0;
  };

  /// Register (or re-find) a dataset's files and return the base slot
  /// index; per-file slot = base + file index. A dataset already
  /// registered under `dir` with the same file count reuses its slots
  /// (counters survive re-opens); a changed file count re-registers
  /// fresh ones. Returns -1 when the slot table is full — accounting
  /// for that dataset then lands in `unattributed()`.
  int register_dataset(const std::string& dir, const Box3& domain,
                       std::uint64_t record_size, bool has_bounds,
                       std::vector<FileInfo> files);

  /// One file's share of one read, recorded once when the caller is done
  /// with the file: the fetch (`bytes_scanned` materialized, read from
  /// disk iff `outcome` is kBypass/kMiss, in `fetch_us` microseconds)
  /// and the `bytes_used` that survived the filter. `filter_us` /
  /// `merge_us` feed the active query record's time breakdown (detailed
  /// mode; 0 when not measured).
  struct FileAccess {
    AccessOutcome outcome = AccessOutcome::kBypass;
    bool had_mirror = false;
    std::uint64_t bytes_scanned = 0;
    std::uint64_t fetch_us = 0;
    std::uint64_t bytes_used = 0;
    std::uint64_t filter_us = 0;
    std::uint64_t merge_us = 0;
  };

  /// Attribute `a` to file `base + file_index`. `base` from
  /// `register_dataset`, negative = count as unattributed.
  void record_access(int base, int file_index, const FileAccess& a);

  /// Service completion annotation for the query record of `qid`
  /// (detailed mode; no-op when the record was never opened or already
  /// dropped).
  void complete_query(std::uint64_t qid, std::uint64_t wait_us,
                      std::uint64_t latency_us, std::size_t waiters);

  // -- always-on kill switch (perf floor + tests) -------------------------
  bool profiling_enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // -- detailed mode ------------------------------------------------------
  /// True when per-query records are being collected (`SPIO_PROFILE` or
  /// `set_detailed`).
  bool detailed() const { return detailed_.load(std::memory_order_relaxed); }
  /// Turn detailed mode on with an output path (empty = collect but do
  /// not auto-write), or off. Registers the exit writer on first enable
  /// with a non-empty path.
  void set_detailed(bool on, std::string path = {});
  std::string profile_path() const;

  /// Apply `SPIO_PROFILE=<path>` (idempotent; also applied on
  /// construction). A directory path gets `profile.spio.json` appended.
  void init_from_env();

  // -- snapshots ----------------------------------------------------------
  /// Point-in-time copy of one file slot joined with its registration.
  struct FileSnapshot {
    std::string dataset;  ///< dataset directory
    std::string name;     ///< data file name
    int file_index = 0;
    Box3 bounds;
    std::uint64_t particle_count = 0;
    std::uint64_t accesses = 0;
    std::uint64_t bytes_scanned = 0;
    std::uint64_t bytes_fetched = 0;
    std::uint64_t bytes_used = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t followers = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t mirror_fetches = 0;
    std::uint64_t last_touch_us = 0;
  };
  /// Every registered file's counters (relaxed reads; skips files that
  /// were never touched when `touched_only`).
  std::vector<FileSnapshot> snapshot_files(bool touched_only = false) const;

  /// Fetches that could not be attributed (unregistered dataset or slot
  /// table full).
  std::uint64_t unattributed() const {
    return unattributed_.load(std::memory_order_relaxed);
  }

  /// Serialize the profile (`"format":"spio.access_profile"`, version 1)
  /// to `path`. Returns false on I/O failure. Thread-safe.
  bool write(const std::string& path) const;
  /// The JSON document `write` serializes, for in-process consumers.
  std::string dump() const;

  /// Zero every slot counter and drop all query records (registrations
  /// stay). Must not race queries. Only tests call it: the profiler is a
  /// process-wide singleton that counts from first use, so an in-process
  /// test has no other way to start from clean counters.
  void reset_counters();

 private:
  AccessProfiler();

  struct FileSlot {
    std::atomic<std::uint64_t> accesses{0};
    std::atomic<std::uint64_t> bytes_scanned{0};
    std::atomic<std::uint64_t> bytes_fetched{0};
    std::atomic<std::uint64_t> bytes_used{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> followers{0};
    std::atomic<std::uint64_t> bypasses{0};
    std::atomic<std::uint64_t> mirror_fetches{0};
    std::atomic<std::uint64_t> last_touch_us{0};
    std::atomic<std::uint64_t> fetch_us_hist[kLatencyBuckets] = {};
  };

  struct DatasetReg {
    std::string dir;
    Box3 domain;
    std::uint64_t record_size = 0;
    bool has_bounds = true;
    int base = 0;
    std::vector<FileInfo> files;
  };

  /// Per-file contribution within one query record.
  struct QueryFile {
    int slot = -1;
    std::uint64_t bytes_scanned = 0;
    std::uint64_t bytes_fetched = 0;
    std::uint64_t bytes_used = 0;
  };

  struct QueryRecord {
    std::uint64_t qid = 0;
    std::string kind;
    double start_us = 0;
    std::vector<QueryFile> files;
    std::uint64_t bytes_scanned = 0;
    std::uint64_t bytes_fetched = 0;
    std::uint64_t bytes_used = 0;
    std::uint64_t fetch_us = 0;
    std::uint64_t filter_us = 0;
    std::uint64_t merge_us = 0;
    std::uint64_t total_us = 0;
    bool finished = false;
    // Service annotation (complete_query); absent for direct queries.
    bool served = false;
    std::uint64_t wait_us = 0;
    std::uint64_t latency_us = 0;
    std::uint64_t waiters = 0;
  };

  friend class ProfiledQuery;
  /// Detailed-mode query lifecycle (driven by `ProfiledQuery`). A begin
  /// returns false when the record was not opened — qid already open
  /// (nested reader entry points: the outer scope owns the record) or
  /// the finished buffer is full.
  bool begin_query(std::uint64_t qid, const char* kind);
  void finish_query(std::uint64_t qid, std::uint64_t total_us);

  QueryFile& query_file_locked(QueryRecord& q, int slot);
  QueryRecord* find_open_locked(std::uint64_t qid);

  std::atomic<bool> enabled_{true};
  std::atomic<bool> detailed_{false};
  std::atomic<FileSlot*> slots_{nullptr};  ///< published with release
  std::atomic<std::uint64_t> unattributed_{0};

  mutable std::mutex reg_mu_;  ///< registrations + path
  std::vector<DatasetReg> datasets_;
  int next_slot_ = 0;
  std::string path_;
  bool exit_writer_registered_ = false;

  mutable std::mutex query_mu_;  ///< detailed-mode records
  std::vector<QueryRecord> open_;
  std::vector<QueryRecord> finished_;
  std::uint64_t queries_dropped_ = 0;
};

/// RAII scope of one profiled query (reader entry points). Inactive —
/// two relaxed loads — unless detailed mode is on; when active it
/// guarantees a non-zero request ID (allocating one when the caller has
/// none, e.g. a direct `query_box` outside the service), opens the query
/// record, and finishes it with the measured wall time on destruction.
class ProfiledQuery {
 public:
  explicit ProfiledQuery(const char* kind);
  ~ProfiledQuery();

  ProfiledQuery(const ProfiledQuery&) = delete;
  ProfiledQuery& operator=(const ProfiledQuery&) = delete;

  bool active() const { return active_; }

 private:
  bool active_ = false;
  std::uint64_t qid_ = 0;
  double t0_us_ = 0;
  std::optional<ScopedQueryId> scope_;  ///< only when we allocated the ID
};

}  // namespace spio::obs
