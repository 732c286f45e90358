#include "core/reader.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <utility>
#include <vector>

#include "core/journal.hpp"
#include "core/read_engine.hpp"
#include "obs/access_profile.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/serialize.hpp"

namespace spio {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mirror one finished read operation's `ReadStats` into the `reader.*`
/// counters (docs/OBSERVABILITY.md) under `obs::stats_enabled()`, and set
/// the `reader.read_amplification` gauge to the cumulative particles
/// scanned per particle returned. Each read entry point calls it once, so
/// the registry equals the sum of the stats its callers received.
void publish_read_stats(const ReadStats& s, std::uint64_t record_size) {
  if (!obs::stats_enabled()) return;
  obs::publish_counter("reader.files_opened",
                       static_cast<std::uint64_t>(s.files_opened));
  obs::publish_counter("reader.bytes_read", s.bytes_read);
  obs::publish_counter("reader.particles_scanned", s.particles_scanned);
  obs::publish_counter("reader.particles_returned", s.particles_returned);
  obs::publish_counter("reader.bytes_returned",
                       s.particles_returned * record_size);
  obs::publish_counter("reader.files_skipped",
                       static_cast<std::uint64_t>(s.files_skipped));
  obs::publish_counter("reader.lod_bytes_skipped", s.lod_bytes_skipped);
  // Cumulative `ReadStats::read_amplification`: particles scanned per
  // particle returned.
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t returned =
      reg.counter("reader.particles_returned").value();
  if (returned > 0)
    reg.gauge("reader.read_amplification")
        .set(static_cast<double>(
                 reg.counter("reader.particles_scanned").value()) /
             static_cast<double>(returned));
}

/// The one access-profiler record of one file of a read: the fetch in
/// `prefix` plus the `bytes_used` that survived the caller's filter
/// (filter/merge µs feed the detailed per-query breakdown; 0 when not
/// measured), attributed to the file's bbox slot registered at open.
void record_access(int profile_base, const Schema& schema, int file_index,
                   const Dataset::FilePrefix& prefix, std::uint64_t bytes_used,
                   std::uint64_t filter_us = 0, std::uint64_t merge_us = 0) {
  // The outcome enums share their values (obs/access_profile.hpp).
  obs::AccessProfiler::instance().record_access(
      profile_base, file_index,
      {static_cast<obs::AccessOutcome>(prefix.fetched.outcome),
       prefix.mirror() != nullptr, prefix.count * schema.record_size(),
       prefix.fetch_us, bytes_used, filter_us, merge_us});
}

}  // namespace

ReadStats ReadStats::max_over(const ReadStats& a, const ReadStats& b) {
  ReadStats m;
  m.files_opened = a.files_opened + b.files_opened;
  m.bytes_read = a.bytes_read + b.bytes_read;
  m.particles_scanned = a.particles_scanned + b.particles_scanned;
  m.particles_returned = a.particles_returned + b.particles_returned;
  m.cache_hits = a.cache_hits + b.cache_hits;
  m.cache_misses = a.cache_misses + b.cache_misses;
  m.files_skipped = a.files_skipped + b.files_skipped;
  m.lod_bytes_skipped = a.lod_bytes_skipped + b.lod_bytes_skipped;
  m.file_io_seconds = std::max(a.file_io_seconds, b.file_io_seconds);
  return m;
}

Dataset::Dataset(std::filesystem::path dir, DatasetMetadata meta)
    : dir_(std::move(dir)), meta_(std::move(meta)) {
  // Attach the zone sidecar when the metadata promises one. Any failure
  // — missing, torn, corrupt, or belonging to another dataset — degrades
  // to zone-free planning (results stay exact, only pruning is lost);
  // the event is logged and counted so operators see the degradation.
  std::shared_ptr<const ZoneMapTable> zones;
  if (meta_.has_zone_maps) {
    try {
      auto table = std::make_shared<ZoneMapTable>(ZoneMapTable::load(dir_));
      SPIO_CHECK(zones_consistent(*table, meta_), FormatError,
                 "zone sidecar does not match the dataset metadata");
      zones = std::move(table);
    } catch (const Error& e) {
      obs::log::Event(obs::log::Level::kWarn, "planner.zone_fallback")
          .kv("dir", dir_.string())
          .kv("error", e.what());
      if (obs::enabled())
        obs::MetricsRegistry::global().counter("planner.zone_fallbacks")
            .add(1);
    }
  }
  planner_ = std::make_shared<QueryPlanner>(meta_.spatial_tree,
                                            std::move(zones),
                                            plan_mode_from_env());
  // Hand the partition layout to the spatial access profiler so every
  // fetch below can be attributed to its file's bbox always-on
  // (docs/OBSERVABILITY.md "Spatial access profiles").
  if (!meta_.files.empty()) {
    std::vector<obs::AccessProfiler::FileInfo> files;
    files.reserve(meta_.files.size());
    for (const FileRecord& f : meta_.files)
      files.push_back({f.file_name(), f.bounds, f.particle_count});
    profile_base_ = obs::AccessProfiler::instance().register_dataset(
        dir_.string(), meta_.domain, meta_.schema.record_size(),
        meta_.has_bounds, std::move(files));
  }
}

Dataset Dataset::open(const std::filesystem::path& dir) {
  try {
    return Dataset(dir, DatasetMetadata::load(dir));
  } catch (const Error&) {
    // Unreadable metadata under an open write journal means the writer
    // crashed mid-write: report the richer diagnosis (and how to repair)
    // instead of a bare I/O or parse failure.
    if (WriteJournal::present(dir)) {
      throw IncompleteDatasetError(
          "'" + dir.string() +
          "' holds an interrupted write (journal present, metadata "
          "unreadable); run check_and_repair to clear it");
    }
    throw;
  }
}

std::vector<int> Dataset::intersecting(const Box3& box) const {
  // The planner raises the "no spatial metadata" error for bound-less
  // datasets, exactly like the metadata's linear path it wraps.
  return planner_->intersecting(meta_, box);
}

std::uint64_t Dataset::level_prefix_count(int file_index, int levels,
                                          int n_readers) const {
  return file_prefix_count(meta_, file_index, levels, n_readers);
}

QueryPlan Dataset::plan_query(const Box3& box,
                              std::span<const RangeFilter> filters,
                              int levels, int n_readers) const {
  return planner_->plan(meta_, box, filters, levels, n_readers);
}

QueryPlan Dataset::plan_reference(const Box3& box,
                                  std::span<const RangeFilter> filters,
                                  int levels, int n_readers) const {
  return planner_->plan_reference(meta_, box, filters, levels, n_readers);
}

QueryPlan Dataset::run_plan(const Box3& box,
                            std::span<const RangeFilter> filters, int levels,
                            int n_readers) const {
  obs::ScopedSpan span("planner.plan", "planner");
  const Clock::time_point t0 = Clock::now();
  QueryPlan plan = planner_->plan(meta_, box, filters, levels, n_readers);
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("planner.plans").add(1);
    reg.counter("planner.plan_us")
        .add(static_cast<std::uint64_t>(seconds_since(t0) * 1e6));
    reg.counter("reader.files_considered")
        .add(static_cast<std::uint64_t>(plan.files_considered));
  }
  return plan;
}

Dataset::FilePrefix Dataset::fetch_file_records(int file_index,
                                                std::uint64_t records,
                                                ReadStats* stats) const {
  SPIO_EXPECTS(file_index >= 0 && file_index < file_count());
  // Cooperative cancellation point: an expired query aborts here,
  // between files, before touching the engine or any shared state.
  read_detail::check_deadline();
  obs::ScopedSpan span("read.file", "reader");
  const Clock::time_point t0 = Clock::now();
  const FileRecord& f = meta_.files[static_cast<std::size_t>(file_index)];
  SPIO_EXPECTS(records <= f.particle_count);
  const std::uint64_t want = records;
  const std::uint64_t record = meta_.schema.record_size();

  const auto path = dir_ / f.file_name();
  ReadEngine& eng = ReadEngine::instance();
  const FileSig sig = eng.probe(path);
  SPIO_CHECK(sig.size == f.particle_count * record, FormatError,
             "data file '" << f.file_name() << "' holds " << sig.size
                           << " bytes but metadata expects "
                           << f.particle_count * record);

  FilePrefix prefix;
  // The mirror spec lets a leader miss build the SoA position mirror
  // with the prefix, so every warm query on this file takes the SIMD
  // kernels (src/simd) instead of the scalar fallback.
  const ReadEngine::MirrorSpec mspec{static_cast<std::size_t>(record),
                                     meta_.schema.offset(0)};
  prefix.fetched = eng.fetch(path, want * record, sig, &mspec);
  prefix.count = want;
  const double seconds = seconds_since(t0);
  prefix.fetch_us = static_cast<std::uint64_t>(seconds * 1e6);
  if (stats) {
    // A single-flight follower shared another query's read: like a hit,
    // this call opened nothing and read no bytes of its own. The access
    // profiler charges bytes_fetched on the same split.
    if (prefix.fetched.outcome == CacheOutcome::kBypass ||
        prefix.fetched.outcome == CacheOutcome::kMiss) {
      stats->files_opened += 1;
      stats->bytes_read += want * record;
      if (prefix.fetched.outcome == CacheOutcome::kMiss)
        stats->cache_misses += 1;
    } else {
      stats->cache_hits += 1;
    }
    stats->particles_scanned += want;
    stats->file_io_seconds += seconds;
  }
  return prefix;
}

ParticleBuffer Dataset::read_data_file(int file_index, int levels,
                                       int n_readers,
                                       ReadStats* stats) const {
  ReadStats rs;
  FilePrefix prefix = fetch_file_records(
      file_index, level_prefix_count(file_index, levels, n_readers), &rs);
  rs.particles_returned = prefix.count;
  // A direct file read keeps every scanned record: used == scanned.
  record_access(profile_base_, meta_.schema, file_index, prefix,
                prefix.count * meta_.schema.record_size());
  ParticleBuffer buf(meta_.schema);
  buf.adopt_bytes(prefix.fetched.take_or_copy());
  publish_read_stats(rs, meta_.schema.record_size());
  if (stats) stats->accumulate(rs);
  return buf;
}

std::uint64_t Dataset::execute_plan(const QueryPlan& plan, const Box3& box,
                                    std::span<const RangeFilter> filters,
                                    bool whole_file_fast_path,
                                    const ChunkSink& sink,
                                    ReadStats* stats) const {
  /// One planned file's filtered records, produced by a pool worker.
  struct Chunk {
    explicit Chunk(const Schema& schema) : buf(schema) {}
    ParticleBuffer buf;
    ReadStats stats;
    std::future<void> done;  // holds the fetch/filter error, if any
  };
  const auto produce = [&](const FilePlan& p, Chunk& c) {
    const FileRecord& f = meta_.files[static_cast<std::size_t>(p.file)];
    const FilePrefix prefix =
        fetch_file_records(p.file, p.fetch_records, &c.stats);
    // The filter/merge wall time feeds the per-query time breakdown, so
    // the clock is only read in detailed mode.
    const bool timed = obs::AccessProfiler::instance().detailed();
    const Clock::time_point t0 = timed ? Clock::now() : Clock::time_point{};
    const bool merged = whole_file_fast_path && box.contains_box(f.bounds);
    if (merged) {
      // Whole file lies inside the query: no per-particle filter
      // needed — the payoff of spatially-coherent files. The planner's
      // closed zone tests guarantee a fully-contained file is never
      // tail-clamped, so this prefix is the complete LOD prefix.
      c.buf.append_bytes(prefix.bytes());
    } else if (filters.empty()) {
      read_detail::filter_box_dispatch(prefix.bytes(), meta_.schema, box,
                                       prefix.mirror(), c.buf);
    } else {
      read_detail::filter_box_ranges_dispatch(
          prefix.bytes(), meta_.schema, box, filters, prefix.mirror(), c.buf);
    }
    // One profile record per file; chunks a stopping sink never
    // consumes still count (they were fetched and filtered).
    const std::uint64_t us =
        timed ? static_cast<std::uint64_t>(seconds_since(t0) * 1e6) : 0;
    record_access(profile_base_, meta_.schema, p.file, prefix,
                  c.buf.size() * meta_.schema.record_size(),
                  /*filter_us=*/merged ? 0 : us,
                  /*merge_us=*/merged ? us : 0);
  };

  // Window of at most `concurrency()` chunks: while the sink consumes
  // one, the pool produces the next ones. A pool of 1 runs each task
  // inline, so the window degenerates to the serial loop: produce,
  // deliver, repeat. The submitting query's deadline and request ID
  // ride onto the workers; the token outlives the tasks because every
  // chunk is drained below before this frame returns.
  ReadEngine& eng = ReadEngine::instance();
  const auto window = static_cast<std::size_t>(eng.concurrency());
  const read_detail::DeadlineToken* deadline = read_detail::current_deadline();
  const std::uint64_t qid = obs::current_query_id();
  std::deque<Chunk> inflight;  // deque: pushes never move live chunks
  // The operation's one record, kept whether or not the caller asked
  // for it: it is what the registry publishes.
  ReadStats acc;
  acc.files_skipped = plan.files_skipped;
  acc.lod_bytes_skipped = plan.lod_bytes_skipped;
  std::size_t next = 0;
  bool done = false;  // failed or stopped: no more sink calls or fetches
  std::exception_ptr failure;
  std::uint64_t delivered = 0;
  for (;;) {
    while (!done && next < plan.files.size() && inflight.size() < window) {
      Chunk& c = inflight.emplace_back(meta_.schema);
      c.done = eng.pool().submit(
          [&produce, &c, p = plan.files[next++], deadline, qid] {
            read_detail::ScopedDeadline dl(deadline);
            obs::ScopedQueryId qs(qid);
            produce(p, c);
          });
    }
    if (inflight.empty()) break;
    Chunk& c = inflight.front();
    if (done) {
      c.done.wait();  // a prefetch past the stop: drained, never delivered
    } else {
      try {
        c.done.get();
        if (!c.buf.empty()) {
          delivered += c.buf.size();
          done = !sink(c.buf);
        }
      } catch (...) {
        // Chunks reach this point in plan order, so this is the
        // earliest failing file — the one a serial loop would report.
        // A throwing sink fails its file the same way.
        failure = std::current_exception();
        done = true;
      }
    }
    acc.accumulate(c.stats);
    inflight.pop_front();
  }
  acc.particles_returned = delivered;
  publish_read_stats(acc, meta_.schema.record_size());
  if (stats) stats->accumulate(acc);
  if (failure) std::rethrow_exception(failure);
  return delivered;
}

ParticleBuffer Dataset::collect_plan(const QueryPlan& plan, const Box3& box,
                                     std::span<const RangeFilter> filters,
                                     bool whole_file_fast_path,
                                     ReadStats* stats) const {
  // The total is known only once every chunk is in, so the chunks are
  // kept and the result is sized once, exactly — no upper-bound reserve
  // to page-fault, no trim copy.
  std::vector<ParticleBuffer> chunks;
  std::size_t total = 0;
  execute_plan(plan, box, filters, whole_file_fast_path,
               [&](ParticleBuffer& chunk) {
                 total += chunk.size();
                 chunks.push_back(std::move(chunk));
                 return true;
               },
               stats);
  if (chunks.size() == 1) return std::move(chunks.front());
  ParticleBuffer out(meta_.schema);
  out.reserve(total);
  for (ParticleBuffer& chunk : chunks) {
    out.append_bytes(chunk.bytes());
    chunk.take_bytes();  // free it now: peak stays near one result
  }
  return out;
}

ParticleBuffer Dataset::query_box(const Box3& box, int levels, int n_readers,
                                  ReadStats* stats) const {
  obs::ScopedSpan span("read.query_box", "reader");
  obs::ProfiledQuery pq("query_box");
  return collect_plan(run_plan(box, {}, levels, n_readers), box, {},
                      /*whole_file_fast_path=*/true, stats);
}

ParticleBuffer Dataset::query(const Box3& box,
                              std::span<const RangeFilter> filters,
                              int levels, int n_readers,
                              ReadStats* stats) const {
  obs::ScopedSpan span("read.query", "reader");
  obs::ProfiledQuery pq("query");
  for (const RangeFilter& rf : filters) {
    SPIO_CHECK(rf.field < meta_.schema.field_count(), ConfigError,
               "range filter on field " << rf.field << " but schema has "
                                        << meta_.schema.field_count());
    SPIO_CHECK(rf.component < meta_.schema.fields()[rf.field].components,
               ConfigError,
               "range filter component " << rf.component
                                         << " out of bounds");
    SPIO_CHECK(rf.lo <= rf.hi, ConfigError,
               "range filter with lo > hi on field " << rf.field);
  }
  return collect_plan(run_plan(box, filters, levels, n_readers), box, filters,
                      /*whole_file_fast_path=*/false, stats);
}

std::uint64_t Dataset::stream_box(
    const Box3& box,
    const std::function<bool(const ParticleBuffer& chunk)>& sink,
    int levels, int n_readers, ReadStats* stats) const {
  SPIO_EXPECTS(sink != nullptr);
  obs::ScopedSpan span("read.stream_box", "reader");
  obs::ProfiledQuery pq("stream_box");
  return execute_plan(run_plan(box, {}, levels, n_readers), box, {},
                      /*whole_file_fast_path=*/true,
                      [&sink](ParticleBuffer& chunk) { return sink(chunk); },
                      stats);
}

ParticleBuffer Dataset::query_box_scan_all(const Box3& box,
                                           ReadStats* stats) const {
  obs::ScopedSpan span("read.scan_all", "reader");
  obs::ProfiledQuery pq("scan_all");
  // Every file in full, no planner: the baseline works without bounds.
  QueryPlan all;
  all.files.resize(static_cast<std::size_t>(file_count()));
  for (int fi = 0; fi < file_count(); ++fi) {
    const std::uint64_t count =
        meta_.files[static_cast<std::size_t>(fi)].particle_count;
    all.files[static_cast<std::size_t>(fi)] = {fi, count, count};
  }
  // No whole-file shortcut: the baseline deliberately filters every
  // particle ("read all particles ... and then cherry-pick", §4).
  return collect_plan(all, box, {}, /*whole_file_fast_path=*/false, stats);
}

int Dataset::level_count(int n_readers) const {
  return lod_level_count(meta_.lod, n_readers, meta_.total_particles);
}

}  // namespace spio
