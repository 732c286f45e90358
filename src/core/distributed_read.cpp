#include "core/distributed_read.hpp"

#include <chrono>
#include <numeric>
#include <type_traits>

#include "core/query_plan/kd_tree.hpp"
#include "core/read_engine.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/run_record.hpp"
#include "obs/trace.hpp"

namespace spio {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int file_reader(const DatasetMetadata& meta, int file_index,
                const PatchDecomposition& decomp) {
  SPIO_EXPECTS(file_index >= 0 &&
               file_index < static_cast<int>(meta.files.size()));
  SPIO_CHECK(meta.has_bounds, ConfigError,
             "distributed reads need spatial metadata");
  const Box3& b = meta.files[static_cast<std::size_t>(file_index)].bounds;
  return decomp.rank_of(decomp.cell_of(b.center()));
}

ParticleBuffer distributed_read(simmpi::Comm& comm,
                                const PatchDecomposition& decomp,
                                const std::filesystem::path& dir, int levels,
                                ReadStats* stats) {
  SPIO_CHECK(comm.size() == decomp.rank_count(), ConfigError,
             "decomposition has " << decomp.rank_count()
                                  << " patches for a job of " << comm.size()
                                  << " ranks");
  // Ranks are threads of one process, so everyone sees the same
  // collection state and agrees on the record-emission gather below.
  const bool record_run = obs::run_records_enabled();
  obs::ScopedSpan whole_span("read.distributed", "reader");
  try {
  const Dataset ds = Dataset::open(dir);
  SPIO_CHECK(decomp.domain().contains_box(ds.metadata().domain), ConfigError,
             "reader domain " << decomp.domain()
                              << " does not contain the dataset domain "
                              << ds.metadata().domain);

  // Local accumulator regardless of the caller's interest: it also feeds
  // the metrics registry and the run record.
  ReadStats acc;

  // Phase 1: read my assigned files and bin their particles by owner
  // tile. Binning uses the decomposition's point location, which clamps
  // boundary particles into the domain's edge patches.
  obs::ScopedSpan io_span("read.distributed.local_io", "reader");
  std::vector<ParticleBuffer> outgoing(
      static_cast<std::size_t>(comm.size()),
      ParticleBuffer(ds.metadata().schema));
  // Candidate files via the k-d tree's closed-overlap search over my
  // patch: a file's owner is the rank whose patch holds its bbox center,
  // and the center lies inside the bbox, so the owner's patch always
  // closed-overlaps the bbox — the candidates are a superset of my files,
  // confirmed exactly by `file_reader` below. Replaces the O(F · ranks)
  // every-rank-scans-every-file loop.
  std::vector<int> candidates;
  if (const auto& tree = ds.spatial_tree(); tree && !tree->empty()) {
    candidates = tree->query_closed(decomp.patch(comm.rank()));
  } else {
    candidates.resize(static_cast<std::size_t>(ds.file_count()));
    std::iota(candidates.begin(), candidates.end(), 0);
  }
  for (const int fi : candidates) {
    if (file_reader(ds.metadata(), fi, decomp) != comm.rank()) continue;
    // Fetch (not read_data_file) keeps the prefix shared with the cache
    // and carries its SoA position mirror, so a warm distributed read
    // bins through the SIMD kernel. Owner binning is fused either way:
    // spatially-coherent files yield long runs of one owner, copied
    // with single memcpys (bin_by_owner_reference is the oracle).
    const Dataset::FilePrefix prefix = ds.fetch_file_records(
        fi, ds.level_prefix_count(fi, levels, comm.size()), &acc);
    read_detail::bin_by_owner_dispatch(prefix.bytes(), ds.metadata().schema,
                                       decomp, prefix.mirror(), outgoing);
    // Owner binning delivers every scanned record to some rank, so the
    // whole prefix counts as used in the access profile (the disjoint
    // tiles cover the domain; nothing is filtered away).
    ds.record_access(fi, prefix, prefix.bytes().size());
  }
  io_span.end();

  // Phase 2: personalized exchange of the binned bytes.
  obs::ScopedSpan exchange_span("read.distributed.exchange", "reader");
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<std::byte>> send_to(
      static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r)
    send_to[static_cast<std::size_t>(r)] =
        outgoing[static_cast<std::size_t>(r)].take_bytes();
  const auto received = comm.alltoallv(send_to);

  ParticleBuffer mine(ds.metadata().schema);
  for (const auto& payload : received) mine.append_bytes(payload);
  acc.exchange_seconds = seconds_since(t0);
  exchange_span.end();

  // What this rank *returns* is what it owns after the exchange, not what
  // it scanned on behalf of others.
  acc.particles_returned = mine.size();
  read_detail::publish_read_stats(acc, ds.metadata().schema.record_size());
  if (stats) stats->accumulate(acc);

  if (record_run) {
    // Merge the read section into the dataset's Darshan-style run record.
    static_assert(std::is_trivially_copyable_v<ReadStats>);
    const std::vector<ReadStats> all = comm.gather<ReadStats>(acc, 0);
    if (comm.rank() == 0) {
      obs::ReadRunInfo info;
      info.ranks = comm.size();
      info.levels = levels;
      for (int r = 0; r < comm.size(); ++r) {
        const ReadStats& s = all[static_cast<std::size_t>(r)];
        info.phases.push_back({r, s.file_io_seconds, s.exchange_seconds});
        info.totals.files_opened += static_cast<std::uint64_t>(s.files_opened);
        info.totals.bytes_read += s.bytes_read;
        info.totals.particles_scanned += s.particles_scanned;
        info.totals.particles_returned += s.particles_returned;
      }
      if (info.totals.particles_returned > 0)
        info.totals.read_amplification =
            static_cast<double>(info.totals.particles_scanned) /
            static_cast<double>(info.totals.particles_returned);
      obs::save_read_record(dir, info,
                            obs::MetricsRegistry::global().snapshot());
    }
  }
  return mine;
  } catch (const simmpi::Aborted&) {
    // Secondary casualty: the rank that actually failed owns the bundle.
    throw;
  } catch (const std::exception& e) {
    // Covers the journal-trigger path too: an incomplete dataset makes
    // `Dataset::open` refuse, and the bundle explains the refusal.
    obs::log::Event(obs::log::Level::kError, "read.failed")
        .kv("rank", comm.rank())
        .kv("dir", dir.string())
        .kv("reason", e.what());
    std::error_code ec;
    if (std::filesystem::is_directory(dir, ec)) {
      obs::PostmortemInfo info;
      info.reason = e.what();
      info.failed_rank = comm.rank();
      info.phase = "read";
      info.job_ranks = comm.size();
      obs::save_postmortem(dir, info);
    }
    throw;
  }
}

}  // namespace spio
