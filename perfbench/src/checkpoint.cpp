/// The `checkpoint` workload: the paper's two-phase write (Fig. 5/6).
///
/// Four simmpi ranks on a 2x2x1 patch grid each hold a fixed uniform
/// buffer of Uintah records; every op is one collective `write_dataset`
/// with partition factor 2x2x1 (one aggregator, one file) into a fresh
/// directory, with journal, checksums and zone maps at their defaults.
/// This is the only workload that drives the exchange, LOD reorder,
/// zone/CRC, file I/O and commit layers.
///
/// One aggregator keeps a single busy thread in the reorder and file-I/O
/// phases. With two or four aggregators on a 4-vCPU guest, the rank
/// threads woken by the exchange were at times all left on one vCPU, so
/// the same work took either about 100 or about 210 ms depending on the
/// host's state, and runs of one build disagreed by 2x.

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "bench_common.hpp"
#include "core/lod.hpp"
#include "core/query_plan/zone_map.hpp"
#include "core/reader.hpp"
#include "core/validate.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 4;

struct RankCall {
  spio::WriteStats stats;
  std::int64_t t0 = 0, t1 = 0, cpu = 0;
};

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t n = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) n += e.file_size();
  return n;
}

/// Per-layer samples of one traced op (the aggregator that finished
/// last, plus the replays on the records it wrote).
struct LayerSample {
  double setup, meta, exch, sent_mb, reorder, file_io, commit, cpu, wait,
      unattributed, reorder_replay, crc_replay, zone_replay;
};

}  // namespace

EndToEnd run_checkpoint(const Args& a, Report& r, LayerValues* layers) {
  const std::uint64_t per_rank = a.tiny() ? 2000 : 100000;
  const std::size_t n_ops = a.tiny() ? 4 : op_count(4.0, a.seconds);
  r.header("ops", std::to_string(n_ops));
  r.header("records_per_rank", std::to_string(per_rank));

  const spio::Schema schema = spio::Schema::uintah();
  const spio::PatchDecomposition decomp(spio::Box3::unit(), {2, 2, 1});
  spio::WriterConfig base;
  base.factor = {2, 2, 1};
  const double user_bytes =
      static_cast<double>(kRanks * per_rank * schema.record_size());

  IdDigest want;
  for (std::uint64_t id = 0; id < kRanks * per_rank; ++id) want.add(id);

  std::vector<spio::ParticleBuffer> local;

  // One collective write into `dir`; returns its wall time in ns.
  std::vector<RankCall> calls(kRanks);
  const auto write_once = [&](const std::filesystem::path& dir,
                              std::uint64_t parent, std::uint64_t op) {
    spio::WriterConfig cfg = base;
    cfg.dir = dir;
    const std::int64_t t0 = now_ns();
    simmpi::run(kRanks, [&](simmpi::Comm& comm) {
      const int rk = comm.rank();
      Span s("writer.write_dataset", parent, op);
      RankCall& c = calls[static_cast<std::size_t>(rk)];
      const std::int64_t cpu0 = thread_cpu_ns();
      c.t0 = now_ns();
      c.stats = spio::write_dataset(comm, decomp,
                                    local[static_cast<std::size_t>(rk)], cfg);
      c.t1 = now_ns();
      c.cpu = thread_cpu_ns() - cpu0;
    });
    return now_ns() - t0;
  };

  // Output check, outside the timed interval: read the dataset back,
  // compare its ID multiset and validate it deep.
  EndToEnd e;
  const auto verify = [&](const std::filesystem::path& dir, bool inject) {
    const spio::Dataset ds = spio::Dataset::open(dir);
    IdDigest got;
    spio::ReadStats st;
    for (int fi = 0; fi < ds.file_count(); ++fi)
      got.merge(digest_ids(ds.read_data_file(fi, -1, 1, &st).bytes(), schema));
    if (inject) got.add(~0ULL);
    e.scanned += st.particles_scanned;
    e.returned += st.particles_returned;
    return got == want && spio::validate_dataset(dir, true).ok();
  };
  // Delete a checked dataset so the disk does not fill, and hand the
  // check's buffers back so every op starts from the same heap.
  const auto cleanup = [&](const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    spio::ReadEngine::instance().clear_cache();
    malloc_trim(0);
  };
  const auto check = [&](const std::filesystem::path& dir, std::size_t i) {
    e.disk_bytes += static_cast<double>(dir_bytes(dir));
    e.dataset_user_bytes += user_bytes;
    const bool ok = verify(dir, a.inject_at(i));
    ++e.attempted;
    if (!ok) ++e.failed;
    cleanup(dir);
  };

  // ---- set-up: generate the rank buffers, then write and check one
  // warm-up checkpoint.
  e.setup_s = time_setups([&](int rep) {
    const std::int64_t t0 = now_ns();
    local.clear();
    for (int rk = 0; rk < kRanks; ++rk)
      local.push_back(spio::workload::uniform(
          schema, decomp.patch(rk), per_rank,
          spio::stream_seed(a.seed, static_cast<std::uint64_t>(rk)),
          static_cast<std::uint64_t>(rk) * per_rank));
    const auto dir = a.work_dir / ("warmup" + std::to_string(rep));
    write_once(dir, 0, 0);
    if (!verify(dir, false))
      throw std::runtime_error("warm-up checkpoint is wrong");
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    cleanup(dir);
    return s;
  });
  e.scanned = e.returned = 0;

  start_peak_window(r);

  if (!layers) {
    // ---- untraced: the end-to-end run
    for (std::size_t i = 0; i < n_ops; ++i) {
      const auto dir = a.work_dir / ("ckpt_" + std::to_string(i));
      reset_peak_rss();
      const std::int64_t cpu0 = process_cpu_ns();
      const std::int64_t wall = write_once(dir, 0, 0);
      e.cpu_s += static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
      e.peak_rss_mb = std::max(e.peak_rss_mb, peak_rss_mb());
      e.op_ms.push_back(ms(wall));
      e.wall_s += static_cast<double>(wall) / 1e9;
      e.user_bytes += user_bytes;
      check(dir, i);
    }
    return e;
  }

  // ---- traced: alternate an untraced op (for trace.overhead_share)
  // with a traced op whose layers are read from the aggregator that
  // finished last, then replayed on the records it wrote.
  Tracer::instance().enable(true);
  std::vector<double> untraced_ms, traced_ms;
  std::vector<LayerSample> samples;
  const std::size_t pairs = std::max<std::size_t>(1, n_ops / 2);
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto dir_u = a.work_dir / ("ckpt_u" + std::to_string(i));
    Tracer::instance().enable(false);
    untraced_ms.push_back(ms(write_once(dir_u, 0, 0)));
    check(dir_u, 2 * i);
    Tracer::instance().enable(true);

    const auto dir = a.work_dir / ("ckpt_" + std::to_string(i));
    const std::uint64_t op = i + 1;
    std::int64_t wall = 0;
    std::uint64_t op_span = 0;
    {
      Span s("checkpoint.op", 0, op);
      op_span = s.id();
      wall = write_once(dir, op_span, op);
    }
    traced_ms.push_back(ms(wall));

    int last = -1;
    double sent = 0;
    for (int rk = 0; rk < kRanks; ++rk) {
      const RankCall& c = calls[static_cast<std::size_t>(rk)];
      sent += static_cast<double>(c.stats.bytes_sent);
      if (c.stats.was_aggregator &&
          (last < 0 || c.t1 > calls[static_cast<std::size_t>(last)].t1))
        last = rk;
    }
    const RankCall& c = calls[static_cast<std::size_t>(last)];
    const spio::WriteStats& w = c.stats;
    LayerSample ls{};
    ls.setup = w.setup_seconds * 1e3;
    ls.meta = w.meta_exchange_seconds * 1e3;
    ls.exch = w.particle_exchange_seconds * 1e3;
    ls.sent_mb = sent / 1e6;
    ls.reorder = w.reorder_seconds * 1e3;
    ls.file_io = w.file_io_seconds * 1e3;
    ls.commit = w.metadata_io_seconds * 1e3;
    ls.cpu = ms(c.cpu);
    ls.wait = ms(c.t1 - c.t0) - ls.cpu;
    ls.unattributed = ms(wall) - w.total_seconds() * 1e3;

    // Replays of single layers on the records this aggregator wrote.
    {
      const spio::Dataset ds = spio::Dataset::open(dir);
      const auto& files = ds.metadata().files;
      std::size_t fi = 0;
      while (fi < files.size() &&
             files[fi].aggregator_rank != static_cast<std::uint32_t>(last))
        ++fi;
      if (fi == files.size())
        throw std::runtime_error("the last aggregator wrote no file");
      spio::ParticleBuffer buf = ds.read_data_file(static_cast<int>(fi));
      const auto timed = [&](const char* name, const auto& fn) {
        Span s(name, op_span, op);
        const std::int64_t t0 = now_ns();
        fn();
        return ms(now_ns() - t0);
      };
      ls.zone_replay = timed("zone_map.compute_zone_maps",
                             [&] { spio::compute_zone_maps(buf, base.lod); });
      ls.crc_replay =
          timed("checksum.crc64", [&] { spio::crc64(buf.bytes()); });
      ls.reorder_replay = timed("lod.lod_reorder", [&] {
        spio::lod_reorder(
            buf, spio::stream_seed(base.shuffle_seed, files[fi].partition_id),
            base.heuristic);
      });
    }
    samples.push_back(ls);
    check(dir, 2 * i + 1);
  }
  Tracer::instance().enable(false);

  const auto med = [&](double LayerSample::*f) {
    std::vector<double> v;
    for (const LayerSample& s : samples) v.push_back(s.*f);
    return median(v);
  };
  *layers = {
      {"writer.setup_ms", med(&LayerSample::setup)},
      {"simmpi.meta_exchange_ms", med(&LayerSample::meta)},
      {"simmpi.particle_exchange_ms", med(&LayerSample::exch)},
      {"simmpi.sent_mb", med(&LayerSample::sent_mb)},
      {"lod.reorder_ms", med(&LayerSample::reorder)},
      {"writer.file_io_ms", med(&LayerSample::file_io)},
      {"writer.commit_ms", med(&LayerSample::commit)},
      {"writer.cpu_ms", med(&LayerSample::cpu)},
      {"writer.wait_ms", med(&LayerSample::wait)},
      {"writer.unattributed_ms", med(&LayerSample::unattributed)},
      {"lod.reorder_replay_ms", med(&LayerSample::reorder_replay)},
      {"checksum.crc64_replay_ms", med(&LayerSample::crc_replay)},
      {"zone_map.build_replay_ms", med(&LayerSample::zone_replay)},
      {"trace.overhead_share", median(traced_ms) / median(untraced_ms) - 1.0},
  };
  return e;
}

}  // namespace perfbench
