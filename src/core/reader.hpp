#pragma once

/// \file reader.hpp
/// Scalable reads for analysis and visualization (paper §4). A `Dataset`
/// wraps one written dataset directory; spatial queries consult the
/// metadata's bounding boxes to open only the files they intersect, and
/// every file can be read as an LOD prefix (the first `levels` levels)
/// instead of in full.
///
/// Readers are independent of the writer's rank count: any number of
/// processes can open the same dataset and issue disjoint queries, which
/// is the paper's visualization-read scenario (§5.3).
///
/// Every query entry point routes through one plan executor over the
/// shared `ReadEngine` (read_engine.hpp): the planned files of a query
/// are fetched and filtered concurrently by a bounded worker pool
/// (`SPIO_READ_THREADS`), file prefixes are served from an LRU buffer
/// cache (`SPIO_READ_CACHE`) so repeated queries skip disk, and
/// per-particle filtering runs through the SIMD kernels over each cached
/// prefix's position mirror (fused scalar kernels otherwise). The
/// per-file results reach the caller (or the streaming sink) in plan
/// order, so output is byte-identical to the serial path; a pool of 1
/// with the cache disabled reproduces serial reads exactly.

#include <filesystem>
#include <functional>
#include <memory>
#include <span>

#include "core/metadata.hpp"
#include "core/query_plan/planner.hpp"
#include "core/read_engine.hpp"
#include "workload/particle_buffer.hpp"

namespace spio {

/// Volume and timing counters for one read operation (accumulated when
/// the same struct is passed to several calls). The symmetric partner of
/// `WriteStats`: reduce across ranks with `ReadStats::max_over`.
struct ReadStats {
  /// Files actually opened and read from disk; a read-cache hit opens
  /// nothing and is counted in `cache_hits` instead.
  int files_opened = 0;
  /// Bytes fetched from disk (cache hits add nothing here).
  std::uint64_t bytes_read = 0;
  /// Particles materialized (from disk or the read cache) before
  /// spatial filtering.
  std::uint64_t particles_scanned = 0;
  /// Particles returned to the caller.
  std::uint64_t particles_returned = 0;
  /// File prefixes served from the read engine's buffer cache / fetched
  /// from disk and inserted into it. Both stay 0 when the cache is
  /// disabled (`SPIO_READ_CACHE=0`).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Candidate files the planner dropped without opening (field-range or
  /// zone-map pruning; the k-d descent's non-candidates are not counted —
  /// they were never considered).
  int files_skipped = 0;
  /// Bytes the zone maps shaved off surviving files' LOD prefixes.
  std::uint64_t lod_bytes_skipped = 0;

  /// Wall time spent inside data-file reads on this rank.
  double file_io_seconds = 0;

  /// Read amplification: particles fetched from disk per particle
  /// actually returned (1.0 = perfect locality; equals the byte ratio
  /// since every record has the same size). 0 when nothing was returned.
  double read_amplification() const {
    if (particles_returned == 0) return 0.0;
    return static_cast<double>(particles_scanned) /
           static_cast<double>(particles_returned);
  }

  /// Field-wise merge of another rank's (or another call's) counters.
  void accumulate(const ReadStats& o) {
    files_opened += o.files_opened;
    bytes_read += o.bytes_read;
    particles_scanned += o.particles_scanned;
    particles_returned += o.particles_returned;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    files_skipped += o.files_skipped;
    lod_bytes_skipped += o.lod_bytes_skipped;
    file_io_seconds += o.file_io_seconds;
  }

  /// Element-wise max of times, sum of volumes; the job-level view
  /// (mirrors `WriteStats::max_over`).
  static ReadStats max_over(const ReadStats& a, const ReadStats& b);
};

class Dataset {
 public:
  /// Open `<dir>/meta.spio` and validate it. Throws `IoError` /
  /// `FormatError` on missing or corrupt metadata.
  static Dataset open(const std::filesystem::path& dir);

  const DatasetMetadata& metadata() const { return meta_; }
  const std::filesystem::path& dir() const { return dir_; }
  int file_count() const { return static_cast<int>(meta_.files.size()); }

  /// Number of particles in the first `levels` LOD levels of file
  /// `file_index`, for `n_readers` reading processes. `levels < 0` means
  /// all of them. The level-size law is global (`n·P·S^l` particles across
  /// the dataset, §3.4); each file contributes its proportional share.
  std::uint64_t level_prefix_count(int file_index, int levels,
                                   int n_readers) const;

  /// Read the first `levels` LOD levels of one data file (`levels < 0`:
  /// the whole file). Only the prefix bytes are read from disk.
  ParticleBuffer read_data_file(int file_index, int levels = -1,
                                int n_readers = 1,
                                ReadStats* stats = nullptr) const;

  /// One file's LOD prefix as fetched through the read engine (bytes
  /// shared with the buffer cache when it is on) plus its record count.
  /// `fetched.mirror` carries the cached SoA position mirror when one
  /// exists, letting callers run the SIMD kernels without re-gathering.
  struct FilePrefix {
    ReadEngine::Fetched fetched;
    std::uint64_t count = 0;
    /// Wall time of the fetch, for the access profile.
    std::uint64_t fetch_us = 0;
    std::span<const std::byte> bytes() const { return fetched.bytes(); }
    /// The SoA mirror for the SIMD dispatch wrappers (null = scalar).
    const PositionMirror* mirror() const { return fetched.mirror.get(); }
  };

  /// Scan-side fetch of the first `records` records of file
  /// `file_index` — the planner's zone-clamped fetch size
  /// (`FilePlan::fetch_records`) or an LOD prefix from
  /// `level_prefix_count`. Counts only scan accounting into `stats`
  /// (files_opened, bytes_read, particles_scanned, cache_*,
  /// file_io_seconds) — never `particles_returned`, so callers never
  /// have to un-count records they end up filtering out. Feeds neither
  /// the metrics registry nor the access profiler: the read entry point
  /// does both once it is done with the file.
  FilePrefix fetch_file_records(int file_index, std::uint64_t records,
                                ReadStats* stats) const;

  /// Spatial box query via the metadata (§4): reads only the files whose
  /// bounds intersect `box`, filters particles of partially-covered files,
  /// optionally LOD-bounded. Requires spatial metadata.
  ParticleBuffer query_box(const Box3& box, int levels = -1,
                           int n_readers = 1,
                           ReadStats* stats = nullptr) const;

  /// A predicate on one scalar field component: keep particles with
  /// value in [lo, hi]. Used by `query` to combine spatial and attribute
  /// selection; files whose metadata range misses [lo, hi] are skipped
  /// without being opened (§3.5 extension). (An alias of the
  /// namespace-scope `spio::RangeFilter` the fused kernels take.)
  using RangeFilter = spio::RangeFilter;

  /// Combined spatial + attribute query: files are pruned first by
  /// bounding box, then by the recorded field ranges; surviving files are
  /// read (LOD-bounded) and particles filtered exactly. Requires spatial
  /// metadata; attribute pruning additionally requires field ranges (it
  /// degrades to exact filtering without them).
  ParticleBuffer query(const Box3& box, std::span<const RangeFilter> filters,
                       int levels = -1, int n_readers = 1,
                       ReadStats* stats = nullptr) const;

  /// Streaming box query for memory-bounded consumers (the paper's
  /// workstation-visualization motivation: "the data does not fit in the
  /// available memory"): matching particles are delivered file by file
  /// through `sink` instead of being materialized in one buffer. Each
  /// chunk holds only particles inside `box`, in LOD order within its
  /// file; peak memory is one file's prefix per in-flight file (at most
  /// `ReadEngine::concurrency()`). Returns the number of particles
  /// delivered. `sink` may return false to stop early (e.g. once a
  /// display budget is filled); files already prefetched past the stop
  /// still count in `stats`.
  std::uint64_t stream_box(
      const Box3& box,
      const std::function<bool(const ParticleBuffer& chunk)>& sink,
      int levels = -1, int n_readers = 1, ReadStats* stats = nullptr) const;

  /// The spatially-unaware baseline: read *every* file in full and filter
  /// ("every process [must] read all particles across all the files and
  /// then cherry-pick", §4). Works without bounding boxes.
  ParticleBuffer query_box_scan_all(const Box3& box,
                                    ReadStats* stats = nullptr) const;

  /// Total number of LOD levels of this dataset for `n_readers`.
  int level_count(int n_readers) const;

  /// The pruned query plan the reading entry points execute (k-d
  /// candidates, field-range pruning, zone-map file skips and LOD tail
  /// clamps; query_plan/planner.hpp). Published for tools and the
  /// differential property suite. Requires spatial metadata.
  QueryPlan plan_query(const Box3& box, std::span<const RangeFilter> filters,
                       int levels = -1, int n_readers = 1) const;

  /// The linear-scan oracle plan (pre-k-d, pre-zone behaviour): bbox scan
  /// + field-range pruning, full LOD prefixes.
  QueryPlan plan_reference(const Box3& box,
                           std::span<const RangeFilter> filters,
                           int levels = -1, int n_readers = 1) const;

  /// The k-d tree over this dataset's partition boxes (null when the
  /// dataset has no spatial metadata). The kNN search drives its own
  /// traversal with it.
  const std::shared_ptr<const BoxKdTree>& spatial_tree() const {
    return meta_.spatial_tree;
  }

  /// This dataset's planner (always set; linear mode under
  /// `SPIO_PLAN=linear` or for bound-less datasets).
  const QueryPlanner& planner() const { return *planner_; }

 private:
  Dataset(std::filesystem::path dir, DatasetMetadata meta);

  /// Files intersecting `box`, via the k-d tree when available.
  std::vector<int> intersecting(const Box3& box) const;

  /// Plan a query and record the planner span/metrics — the shared front
  /// half of every query entry point.
  QueryPlan run_plan(const Box3& box, std::span<const RangeFilter> filters,
                     int levels, int n_readers) const;

  /// Receives one file's filtered records and may take them (move the
  /// buffer out); returning false stops the query.
  using ChunkSink = std::function<bool(ParticleBuffer& chunk)>;

  /// The plan executor behind every query entry point. Pool workers
  /// fetch and filter each planned file into a per-file chunk, at most
  /// `ReadEngine::concurrency()` files ahead; this thread hands the
  /// non-empty chunks to `sink` in plan order, so output is
  /// byte-identical to a serial loop at any pool size. The earliest
  /// failing file in plan order is rethrown; after a failure or a sink
  /// that returns false there are no more sink calls and no new fetches
  /// (files already in flight are drained and still count in `stats`).
  /// `whole_file_fast_path` enables the contains_box shortcut (spatial
  /// queries only; attribute queries and the scan-all baseline always
  /// filter). Every file's stats, the plan's skip counts and the
  /// delivered count sum into one `ReadStats`, which is published to the
  /// `reader.*` metrics and added to `*stats` on every exit, failed and
  /// stopped queries included. Returns particles delivered.
  std::uint64_t execute_plan(const QueryPlan& plan, const Box3& box,
                             std::span<const RangeFilter> filters,
                             bool whole_file_fast_path, const ChunkSink& sink,
                             ReadStats* stats) const;

  /// `execute_plan` with a sink that takes every chunk, then one result
  /// built at its exact size in plan order: a one-chunk plan moves its
  /// chunk out, longer plans copy each chunk once and free it. The body
  /// of `query_box` / `query` / `query_box_scan_all`.
  ParticleBuffer collect_plan(const QueryPlan& plan, const Box3& box,
                              std::span<const RangeFilter> filters,
                              bool whole_file_fast_path,
                              ReadStats* stats) const;

  std::filesystem::path dir_;
  DatasetMetadata meta_;
  /// The query planner (k-d tree + zone maps + plan mode); shared so
  /// Dataset stays cheaply copyable.
  std::shared_ptr<const QueryPlanner> planner_;
  /// Base slot of this dataset in the spatial access profiler; per-file
  /// slot = base + file index, -1 when the slot table had no room.
  int profile_base_ = -1;
};

}  // namespace spio
