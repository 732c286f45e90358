/// The read workloads: `explore` (one analyst over a dataset larger than
/// the prefix cache) and `serve` (four closed-loop clients of a
/// `QueryService` over a dataset that fits the cache).
///
/// Every op is one of four kinds — a full `query_box`, an LOD-2
/// `query_box`, a box + density-range `query`, or a full `stream_box` —
/// and is checked against a brute-force answer computed from the
/// particles the benchmark generated. The traced run executes each op
/// through a layer replay (plan -> fetch -> filter -> merge, mirroring
/// the entry points) whose result must be byte-identical to the entry
/// point's.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "core/query_service.hpp"
#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using spio::Box3;
using spio::Dataset;
using spio::ParticleBuffer;
using spio::ReadStats;

// ---- ops -------------------------------------------------------------------

enum class Kind : int { kBox = 0, kRange = 1, kStream = 2, kLod = 3 };
constexpr int kLodLevels = 2;

struct Op {
  Kind kind = Kind::kBox;
  Box3 box;
  double dlo = 0, dhi = 0;  ///< density window (kRange only)
};

template <typename T>
void shuffle(spio::Xoshiro256& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.uniform_index(i)]);
}

/// `n` stratified draws from [0, 1) in random order (a Latin-hypercube
/// axis): every seed covers the range evenly, so op sizes — and with
/// them the work of a run — barely vary between seeds.
std::vector<double> strata(spio::Xoshiro256& rng, std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(n);
  shuffle(rng, v);
  return v;
}

/// Ops of every kind in equal numbers, each kind with box sides
/// stratified over [side_lo, side_hi] per axis and density windows of
/// +-50 around centres stratified over [950, 1050] (density is
/// N(1000, 50), see workload::fill_attributes); boxes are placed
/// uniformly in the unit domain and the ops shuffled.
std::vector<Op> make_ops(std::uint64_t seed, std::size_t per_kind,
                         double side_lo, double side_hi) {
  spio::Xoshiro256 rng(seed);
  std::vector<Op> ops;
  for (const Kind k : {Kind::kBox, Kind::kRange, Kind::kStream, Kind::kLod}) {
    const std::vector<double> sx = strata(rng, per_kind),
                              sy = strata(rng, per_kind),
                              sz = strata(rng, per_kind),
                              sd = strata(rng, per_kind);
    for (std::size_t i = 0; i < per_kind; ++i) {
      Op op;
      op.kind = k;
      double lo[3], hi[3];
      const double s[3] = {sx[i], sy[i], sz[i]};
      for (int ax = 0; ax < 3; ++ax) {
        const double side = side_lo + (side_hi - side_lo) * s[ax];
        lo[ax] = (1.0 - side) * rng.uniform();
        hi[ax] = lo[ax] + side;
      }
      op.box.lo = {lo[0], lo[1], lo[2]};
      op.box.hi = {hi[0], hi[1], hi[2]};
      op.dlo = 900.0 + 100.0 * sd[i];
      op.dhi = op.dlo + 100.0;
      ops.push_back(op);
    }
  }
  shuffle(rng, ops);
  return ops;
}

// ---- dataset + brute-force truth ------------------------------------------------

struct Rec {
  double x, y, z, d;
  std::uint64_t id;
};

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

std::uint64_t rec_key(const Rec& r) {
  std::uint64_t h = r.id;
  for (const double v : {r.x, r.y, r.z, r.d})
    h = (h ^ bits(v)) * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL;
  return h;
}

Rec rec_at(const ParticleBuffer& b, std::size_t i, std::size_t dfield,
           std::size_t idfield) {
  const spio::Vec3d p = b.position(i);
  return {p.x, p.y, p.z, b.get_f64(i, dfield),
          static_cast<std::uint64_t>(b.get_f64(i, idfield))};
}

struct ReadData {
  std::optional<Dataset> ds;
  std::size_t dfield = 0, idfield = 0;
  /// Per data file, the records in file (LOD) order.
  std::vector<std::vector<Rec>> files;
  double disk_bytes = 0, user_bytes = 0;

  const spio::Schema& schema() const { return ds->metadata().schema; }
};

/// Write a 64-file dataset (64 ranks on a 4x4x4 grid, factor 1x1x1) of
/// `per_rank` uniform records per rank, open it, and build the
/// brute-force truth from its files — checked to hold exactly the
/// generated records.
void build_dataset(ReadData& rd, const std::filesystem::path& dir,
                   std::uint64_t seed, std::uint64_t per_rank) {
  constexpr int kRanks = 64;
  const spio::Schema schema = spio::Schema::uintah();
  const spio::PatchDecomposition decomp(Box3::unit(), {4, 4, 4});
  spio::WriterConfig cfg;
  cfg.dir = dir;
  rd.dfield = schema.index_of("density");
  rd.idfield = schema.index_of("id");
  std::vector<IdDigest> generated(kRanks);
  simmpi::run(kRanks, [&](simmpi::Comm& comm) {
    const int rk = comm.rank();
    const ParticleBuffer local = spio::workload::uniform(
        schema, decomp.patch(rk), per_rank,
        spio::stream_seed(seed ^ 0xda7a5e7ULL, static_cast<std::uint64_t>(rk)),
        static_cast<std::uint64_t>(rk) * per_rank);
    IdDigest& g = generated[static_cast<std::size_t>(rk)];
    for (std::size_t i = 0; i < local.size(); ++i)
      g.add(rec_key(rec_at(local, i, rd.dfield, rd.idfield)));
    spio::write_dataset(comm, decomp, local, cfg);
  });
  rd.ds = Dataset::open(dir);
  rd.files.assign(static_cast<std::size_t>(rd.ds->file_count()), {});
  IdDigest want, got;
  for (const IdDigest& g : generated) want.merge(g);
  for (int fi = 0; fi < rd.ds->file_count(); ++fi) {
    const ParticleBuffer b = rd.ds->read_data_file(fi);
    auto& recs = rd.files[static_cast<std::size_t>(fi)];
    recs.reserve(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      recs.push_back(rec_at(b, i, rd.dfield, rd.idfield));
      got.add(rec_key(recs.back()));
    }
  }
  if (!(got == want))
    throw std::runtime_error("written dataset does not hold the generated "
                             "particles");
  rd.disk_bytes = 0;
  for (const auto& f : std::filesystem::recursive_directory_iterator(dir))
    if (f.is_regular_file()) rd.disk_bytes += static_cast<double>(f.file_size());
  rd.user_bytes =
      static_cast<double>(kRanks * per_rank * schema.record_size());
}

/// The brute-force answer: every generated record inside the box (and
/// the density window), within the file's LOD-2 prefix for LOD ops.
IdDigest brute_force(const ReadData& rd, const Op& op) {
  IdDigest d;
  const auto& files = rd.ds->metadata().files;
  for (std::size_t fi = 0; fi < rd.files.size(); ++fi) {
    if (!op.box.overlaps_closed(files[fi].bounds)) continue;
    const auto& recs = rd.files[fi];
    const std::size_t limit =
        op.kind == Kind::kLod
            ? static_cast<std::size_t>(rd.ds->level_prefix_count(
                  static_cast<int>(fi), kLodLevels, 1))
            : recs.size();
    for (std::size_t k = 0; k < limit; ++k) {
      const Rec& r = recs[k];
      if (!op.box.contains({r.x, r.y, r.z})) continue;
      if (op.kind == Kind::kRange && (r.d < op.dlo || r.d > op.dhi)) continue;
      d.add(r.id);
    }
  }
  return d;
}

// ---- execution: entry points and the layer replay ------------------------------

ParticleBuffer run_entry(const ReadData& rd, const Op& op, ReadStats* st) {
  const Dataset& ds = *rd.ds;
  switch (op.kind) {
    case Kind::kBox:
      return ds.query_box(op.box, -1, 1, st);
    case Kind::kLod:
      return ds.query_box(op.box, kLodLevels, 1, st);
    case Kind::kRange: {
      const spio::RangeFilter f{rd.dfield, 0, op.dlo, op.dhi};
      return ds.query(op.box, {&f, 1}, -1, 1, st);
    }
    case Kind::kStream:
      break;
  }
  ParticleBuffer out(rd.schema());
  ds.stream_box(
      op.box,
      [&out](const ParticleBuffer& chunk) {
        out.append_bytes(chunk.bytes());
        return true;
      },
      -1, 1, st);
  return out;
}

/// Layer busy times and counts of one replayed op.
struct LayerOp {
  double plan_us = 0, fetch_ms = 0, filter_ms = 0, merge_ms = 0;
  std::uint64_t files = 0, considered = 0, skipped = 0;
  std::uint64_t lod_skipped_bytes = 0, prefix_bytes = 0;
  std::uint64_t filtered_recs = 0, prefixes = 0, mirrored = 0;
  std::uint64_t bytes_read = 0, hits = 0, misses = 0;

  double layer_sum_ms() const {
    return plan_us / 1e3 + fetch_ms + filter_ms + merge_ms;
  }
};

/// The layer replay: `Dataset::plan_query`, `fetch_file_records` per
/// `FilePlan` on the engine pool, the SIMD filter dispatch, and the
/// in-order merge — the same steps, order, whole-file fast path and
/// reservation as the entry points, with each step timed and spanned.
ParticleBuffer replay(const ReadData& rd, const Op& op, ReadStats* st,
                      LayerOp& L, std::uint64_t opid, std::uint64_t parent) {
  const Dataset& ds = *rd.ds;
  const spio::Schema& schema = rd.schema();
  const auto& files = ds.metadata().files;
  const spio::RangeFilter rf{rd.dfield, 0, op.dlo, op.dhi};
  const std::span<const spio::RangeFilter> filters =
      op.kind == Kind::kRange ? std::span<const spio::RangeFilter>(&rf, 1)
                              : std::span<const spio::RangeFilter>();
  const int levels = op.kind == Kind::kLod ? kLodLevels : -1;

  spio::QueryPlan plan;
  {
    Span s("planner.plan_query", parent, opid);
    const std::int64_t t0 = now_ns();
    plan = ds.plan_query(op.box, filters, levels, 1);
    L.plan_us = static_cast<double>(now_ns() - t0) / 1e3;
  }
  st->files_skipped += plan.files_skipped;
  st->lod_bytes_skipped += plan.lod_bytes_skipped;
  L.files = plan.files.size();
  L.considered = static_cast<std::uint64_t>(plan.files_considered);
  L.skipped = static_cast<std::uint64_t>(plan.files_skipped);
  L.lod_skipped_bytes = plan.lod_bytes_skipped;
  for (const spio::FilePlan& p : plan.files)
    L.prefix_bytes += p.prefix_records * schema.record_size();

  std::atomic<std::int64_t> fetch_ns{0}, filter_ns{0}, merge_ns{0};
  std::atomic<std::uint64_t> frecs{0}, prefixes{0}, mirrored{0};
  const bool fast_path = op.kind != Kind::kRange;

  const auto fetch = [&](const spio::FilePlan& p, ReadStats* rs) {
    Span s("read_engine.fetch_file_records", parent, opid);
    const std::int64_t t0 = now_ns();
    Dataset::FilePrefix pre = ds.fetch_file_records(p.file, p.fetch_records, rs);
    fetch_ns += now_ns() - t0;
    return pre;
  };
  const auto filter = [&](const spio::FilePlan& p,
                          const Dataset::FilePrefix& pre, ParticleBuffer& dst) {
    const std::int64_t t0 = now_ns();
    if (fast_path &&
        op.box.contains_box(files[static_cast<std::size_t>(p.file)].bounds)) {
      Span s("reader.merge", parent, opid);
      dst.append_bytes(pre.bytes());
      merge_ns += now_ns() - t0;
      return;
    }
    Span s("simd.filter_dispatch", parent, opid);
    if (filters.empty())
      spio::read_detail::filter_box_dispatch(pre.bytes(), schema, op.box,
                                             pre.mirror(), dst);
    else
      spio::read_detail::filter_box_ranges_dispatch(
          pre.bytes(), schema, op.box, filters, pre.mirror(), dst);
    filter_ns += now_ns() - t0;
    frecs += pre.count;
    prefixes += 1;
    mirrored += pre.mirror() != nullptr ? 1 : 0;
  };

  spio::ReadEngine& eng = spio::ReadEngine::instance();
  const std::size_t n = plan.files.size();
  ParticleBuffer out(schema);
  std::exception_ptr failure;

  if (op.kind == Kind::kStream) {
    // stream_box: the pool produces (fetch + filter) chunks within a
    // window of `concurrency` files; this thread delivers them in order.
    struct Chunk {
      ParticleBuffer buf;
      ReadStats stats;
      std::exception_ptr error;
    };
    const std::size_t window = std::max<std::size_t>(
        1, std::min<std::size_t>(n, static_cast<std::size_t>(eng.concurrency())));
    std::deque<std::unique_ptr<Chunk>> inflight;
    std::deque<std::future<void>> pending;
    std::size_t next = 0;
    const auto launch = [&] {
      while (!failure && next < n && inflight.size() < window) {
        inflight.push_back(
            std::make_unique<Chunk>(Chunk{ParticleBuffer(schema), {}, {}}));
        Chunk* c = inflight.back().get();
        const spio::FilePlan fp = plan.files[next++];
        pending.push_back(eng.pool().submit([&fetch, &filter, fp, c] {
          try {
            const Dataset::FilePrefix pre = fetch(fp, &c->stats);
            filter(fp, pre, c->buf);
          } catch (...) {
            c->error = std::current_exception();
          }
        }));
      }
    };
    launch();
    while (!inflight.empty()) {
      pending.front().wait();
      pending.pop_front();
      const std::unique_ptr<Chunk> c = std::move(inflight.front());
      inflight.pop_front();
      if (c->error && !failure) failure = c->error;
      st->accumulate(c->stats);
      if (!failure && !c->buf.empty()) {
        Span s("reader.merge", parent, opid);
        const std::int64_t t0 = now_ns();
        st->particles_returned += c->buf.size();
        out.append_bytes(c->buf.bytes());
        merge_ns += now_ns() - t0;
      }
      launch();
    }
  } else if (n <= 1 || eng.concurrency() <= 1) {
    for (const spio::FilePlan& p : plan.files) filter(p, fetch(p, st), out);
    st->particles_returned += out.size();
  } else {
    // query_box / query: workers fetch, this thread filters each prefix
    // into `out` in plan order as soon as its fetch resolves.
    std::uint64_t upper = 0;
    for (const spio::FilePlan& p : plan.files) upper += p.fetch_records;
    out.reserve(static_cast<std::size_t>(upper));
    struct PerFile {
      Dataset::FilePrefix prefix;
      ReadStats stats;
    };
    std::vector<PerFile> res(n);
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
      pending.push_back(eng.pool().submit([&fetch, &res, &plan, k] {
        res[k].prefix = fetch(plan.files[k], &res[k].stats);
      }));
    for (std::size_t k = 0; k < n; ++k) {
      try {
        pending[k].get();
        if (failure) continue;
        st->accumulate(res[k].stats);
        filter(plan.files[k], res[k].prefix, out);
        res[k].prefix = Dataset::FilePrefix{};
      } catch (...) {
        if (!failure) failure = std::current_exception();
      }
    }
    if (!failure && out.size() < upper / 2) {
      const std::int64_t t0 = now_ns();
      out.shrink_to_fit();
      merge_ns += now_ns() - t0;
    }
    st->particles_returned += out.size();
  }
  if (failure) std::rethrow_exception(failure);

  L.fetch_ms = ms(fetch_ns.load());
  L.filter_ms = ms(filter_ns.load());
  L.merge_ms = ms(merge_ns.load());
  L.filtered_recs = frecs.load();
  L.prefixes = prefixes.load();
  L.mirrored = mirrored.load();
  L.bytes_read = st->bytes_read;
  L.hits = st->cache_hits;
  L.misses = st->cache_misses;
  return out;
}

/// Per-layer read-path metrics over the replayed ops. Times are medians
/// per op; counts and shares are ratios of totals.
void read_layers(LayerValues& out, const std::vector<LayerOp>& ops,
                 double evicted_bytes) {
  std::vector<double> plan, fetch, filt, merge;
  LayerOp t;
  double filter_ms = 0;
  for (const LayerOp& o : ops) {
    plan.push_back(o.plan_us);
    fetch.push_back(o.fetch_ms);
    filt.push_back(o.filter_ms);
    merge.push_back(o.merge_ms);
    filter_ms += o.filter_ms;
    t.files += o.files;
    t.considered += o.considered;
    t.skipped += o.skipped;
    t.lod_skipped_bytes += o.lod_skipped_bytes;
    t.prefix_bytes += o.prefix_bytes;
    t.filtered_recs += o.filtered_recs;
    t.prefixes += o.prefixes;
    t.mirrored += o.mirrored;
    t.bytes_read += o.bytes_read;
    t.hits += o.hits;
    t.misses += o.misses;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, ops.size()));
  const auto share = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  out.insert(
      out.end(),
      {{"planner.plan_us", median(plan)},
       {"planner.files_per_op", static_cast<double>(t.files) / n},
       {"planner.skipped_share", share(t.skipped, t.considered)},
       {"planner.lod_skipped_share", share(t.lod_skipped_bytes, t.prefix_bytes)},
       {"read_engine.fetch_ms", median(fetch)},
       {"read_engine.disk_mb_per_op", static_cast<double>(t.bytes_read) / 1e6 / n},
       {"prefix_cache.hit_rate", share(t.hits, t.hits + t.misses)},
       {"prefix_cache.evicted_mb_per_op", evicted_bytes / 1e6 / n},
       {"simd.filter_ms", median(filt)},
       {"simd.filter_mrec_s",
        filter_ms > 0 ? static_cast<double>(t.filtered_recs) / 1e3 / filter_ms
                      : 0.0},
       {"simd.mirror_share", share(t.mirrored, t.prefixes)},
       {"reader.merge_ms", median(merge)}});
}

void reset_engine() {
  spio::ReadEngine& eng = spio::ReadEngine::instance();
  eng.clear_cache();
  eng.reset_cache_stats();
}

// ---- Zipf picks (serve) ----------------------------------------------------------

std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) total += 1.0 / std::pow(r + 1.0, s);
  double acc = 0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(r + 1.0, s) / total;
    cdf[r] = acc;
  }
  cdf[n - 1] = 1.0;
  return cdf;
}

std::size_t zipf_pick(const std::vector<double>& cdf, double u) {
  return static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

}  // namespace

// ============================================================================
// explore
// ============================================================================

EndToEnd run_explore(const Args& a, Report& r, LayerValues* layers) {
  // 64 files x 60000 records x 124 B = 476 MB, about 1.9x the default
  // 256 MiB prefix cache, so most fetches miss.
  const std::uint64_t per_rank = a.tiny() ? 300 : 60000;
  const std::size_t n_ops = a.tiny() ? 16 : op_count(60.0, a.seconds) / 4 * 4;
  const std::size_t n_warm = a.tiny() ? 4 : 12;
  r.header("ops", std::to_string(n_ops));
  r.header("records_per_rank", std::to_string(per_rank));

  const std::vector<Op> ops =
      make_ops(spio::stream_seed(a.seed, 0xE1), n_ops / 4, 0.15, 0.45);
  const std::vector<Op> warm =
      make_ops(spio::stream_seed(a.seed, 0xE2), n_warm / 4, 0.15, 0.45);

  ReadData rd;
  const auto warm_up = [&] {
    for (const Op& op : warm) run_entry(rd, op, nullptr);
  };
  EndToEnd e;
  e.setup_s = time_setups([&](int rep) {
    const auto dir = a.work_dir / ("dataset" + std::to_string(rep));
    const std::int64_t t0 = now_ns();
    build_dataset(rd, dir, a.seed, per_rank);
    warm_up();
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    if (rep != 0) std::filesystem::remove_all(dir);
    return s;
  });
  e.disk_bytes = rd.disk_bytes;
  e.dataset_user_bytes = rd.user_bytes;

  start_peak_window(r);

  // One pass over ops [0, count): entry points, or the traced replay.
  // Each op's output is checked after its timed interval.
  const auto pass = [&](std::size_t count, std::vector<double>& lat,
                        std::vector<std::uint64_t>* hashes,
                        std::vector<LayerOp>* lops) {
    for (std::size_t i = 0; i < count; ++i) {
      const Op& op = ops[i];
      ReadStats st;
      LayerOp L;
      const std::int64_t cpu0 = process_cpu_ns();
      const std::int64_t t0 = now_ns();
      ParticleBuffer res = [&] {
        if (!lops) return run_entry(rd, op, &st);
        const std::uint64_t opid = i + 1;
        Span s("explore.op", 0, opid);
        return replay(rd, op, &st, L, opid, s.id());
      }();
      const std::int64_t t1 = now_ns();
      e.cpu_s += static_cast<double>(process_cpu_ns() - cpu0) / 1e9;
      lat.push_back(ms(t1 - t0));
      e.wall_s += static_cast<double>(t1 - t0) / 1e9;
      e.user_bytes += static_cast<double>(res.byte_size());
      e.scanned += st.particles_scanned;
      e.returned += st.particles_returned;

      IdDigest got = digest_ids(res.bytes(), rd.schema());
      if (a.inject_at(i)) got.add(~0ULL);
      bool ok = got == brute_force(rd, op);
      if (hashes) {
        const std::uint64_t h = spio::crc64(res.bytes());
        if (lops) ok = ok && h == (*hashes)[i];
        else hashes->push_back(h);
      }
      if (lops) lops->push_back(L);
      ++e.attempted;
      if (!ok) ++e.failed;
    }
  };

  if (!layers) {
    pass(n_ops, e.op_ms, nullptr, nullptr);
    e.peak_rss_mb = peak_rss_mb();
    return e;
  }

  // Traced run: the first half of the sequence through the entry points
  // (untraced), then through the traced replay, each op compared byte for
  // byte with its entry-point result. Both passes start from the same
  // cache state: cleared, then warmed. (The set-up's read-back of every
  // file leaves prefixes cached under the keys the queries use.)
  const std::size_t m = std::max<std::size_t>(1, n_ops / 2);
  std::vector<double> lat_entry, lat_replay;
  std::vector<std::uint64_t> hashes;
  std::vector<LayerOp> lops;
  reset_engine();
  warm_up();
  pass(m, lat_entry, &hashes, nullptr);
  reset_engine();
  warm_up();
  const std::uint64_t evicted0 =
      spio::ReadEngine::instance().cache_stats().bytes_evicted;
  Tracer::instance().enable(true);
  pass(m, lat_replay, &hashes, &lops);
  Tracer::instance().enable(false);
  const double evicted = static_cast<double>(
      spio::ReadEngine::instance().cache_stats().bytes_evicted - evicted0);
  read_layers(*layers, lops, evicted);
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < m; ++i)
    unattributed.push_back(lat_entry[i] - lops[i].layer_sum_ms());
  layers->push_back({"reader.unattributed_ms", median(unattributed)});
  layers->push_back(
      {"trace.overhead_share", median(lat_replay) / median(lat_entry) - 1.0});
  return e;
}

// ============================================================================
// serve
// ============================================================================

EndToEnd run_serve(const Args& a, Report& r, LayerValues* layers) {
  // 64 files x 15000 records x 124 B = 119 MB, so every prefix (full,
  // LOD-2 and zone-clamped entries, with their mirrors) stays resident
  // in every shard of the default 256 MiB cache. At 159 MB one of the 8
  // shards overflowed: about 1% of fetches missed and went to disk.
  const std::uint64_t per_rank = a.tiny() ? 300 : 15000;
  constexpr int kClients = 4;
  constexpr std::size_t kHot = 32;
  constexpr double kHotSide = 0.25;
  const std::size_t per_client =
      a.tiny() ? 16 : op_count(1800.0, a.seconds) / kClients;
  const std::size_t n_ops = per_client * kClients;
  r.header("ops", std::to_string(n_ops));
  r.header("clients", std::to_string(kClients));
  r.header("records_per_rank", std::to_string(per_rank));

  // 32 hot queries of one box size, so the p50 cannot fall in a gap
  // between box-size classes.
  struct Hot {
    Op op;
    IdDigest want;
    std::uint64_t hash = 0;
    std::uint64_t scanned = 0, returned = 0;
  };
  std::vector<Hot> hot(kHot);
  {
    const std::vector<Op> ops =
        make_ops(spio::stream_seed(a.seed, 0x5E), kHot / 4, kHotSide, kHotSide);
    // Zipf rank i gets kind i % 4: the cheap LOD-2 kind (3) lands on
    // the least popular rank of every four.
    std::size_t next[4] = {0, 0, 0, 0};
    for (const Op& op : ops) {
      const auto k = static_cast<std::size_t>(op.kind);
      hot[next[k]++ * 4 + k].op = op;
    }
  }
  const std::vector<double> cdf = zipf_cdf(kHot, 1.1);

  ReadData rd;
  std::unique_ptr<spio::QueryService> svc;
  EndToEnd e;
  e.setup_s = time_setups([&](int rep) {
    const auto dir = a.work_dir / ("dataset" + std::to_string(rep));
    const std::int64_t t0 = now_ns();
    build_dataset(rd, dir, a.seed, per_rank);
    // Warm the cache with every hot query and record its expected answer.
    for (Hot& h : hot) {
      ReadStats st;
      const ParticleBuffer res = run_entry(rd, h.op, &st);
      h.want = brute_force(rd, h.op);
      h.hash = spio::crc64(res.bytes());
      h.scanned = st.particles_scanned;
      h.returned = st.particles_returned;
    }
    svc = std::make_unique<spio::QueryService>();
    for (const Hot& h : hot)
      svc->run([&rd, &h] { return run_entry(rd, h.op, nullptr); });
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    if (rep != 0) std::filesystem::remove_all(dir);
    return s;
  });
  e.disk_bytes = rd.disk_bytes;
  e.dataset_user_bytes = rd.user_bytes;

  start_peak_window(r);

  struct Sample {
    double latency_ms = 0;
    bool ran = false;  ///< this client's own QueryFn executed (not coalesced)
    double queue_ms = 0, exec_ms = 0, delivery_ms = 0;
    LayerOp L;
  };
  std::atomic<std::uint64_t> failed{0};
  std::atomic<double> user_bytes{0};

  // One closed-loop window: kClients threads, `per` ops each, every
  // client waiting for its reply before the next submit. The clients
  // run in batches of kBatch ops: they keep their replies and check them
  // after the batch, between two barriers, so the checks stay out of the
  // timed intervals and take no vCPU from the service. Returns the
  // window's timed wall time in seconds (the sum of its batches').
  constexpr std::size_t kBatch = 16;
  const auto window = [&](std::size_t per, bool traced,
                          std::vector<std::vector<Sample>>& samples) {
    samples.assign(kClients, {});
    double wall = 0;
    std::int64_t t0 = 0, cpu0 = 0;
    bool open = false;
    // The last client to arrive opens or closes the timed interval.
    const auto toggle = [&]() noexcept {
      const std::int64_t t = now_ns(), cpu = process_cpu_ns();
      if (!open) {
        t0 = t;
        cpu0 = cpu;
      } else {
        wall += static_cast<double>(t - t0) / 1e9;
        e.cpu_s += static_cast<double>(cpu - cpu0) / 1e9;
      }
      open = !open;
    };
    std::barrier sync(kClients, toggle);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        spio::Xoshiro256 rng(
            spio::stream_seed(a.seed, 1000 + static_cast<std::uint64_t>(c)));
        auto& mine = samples[static_cast<std::size_t>(c)];
        mine.reserve(per);
        struct Reply {
          std::size_t qi;
          std::uint64_t opid;
          spio::QueryService::Result res;
        };
        std::vector<Reply> replies;
        replies.reserve(kBatch);
        double bytes = 0;
        for (std::size_t k0 = 0; k0 < per; k0 += kBatch) {
          sync.arrive_and_wait();
          for (std::size_t k = k0; k < std::min(per, k0 + kBatch); ++k) {
            const std::size_t qi = zipf_pick(cdf, rng.uniform());
            const Hot& h = hot[qi];
            const std::uint64_t opid =
                static_cast<std::uint64_t>(c) * per + k + 1;
            Sample s;
            std::int64_t t_submit = 0, t_start = 0, t_end = 0;
            ReadStats st;
            spio::QueryService::Options opt;
            opt.coalesce_key = std::to_string(qi);
            spio::QueryService::Result res;
            {
              Span span("serve.op", 0, opid);
              const std::uint64_t parent = span.id();
              auto fn = [&, parent]() {
                t_start = now_ns();
                ParticleBuffer out = [&] {
                  if (!traced) return run_entry(rd, h.op, &st);
                  Span x("query_service.exec", parent, opid);
                  return replay(rd, h.op, &st, s.L, opid, x.id());
                }();
                t_end = now_ns();
                return out;
              };
              t_submit = now_ns();
              res = svc->run(fn, opt);
            }
            const std::int64_t t_wake = now_ns();
            s.latency_ms = ms(t_wake - t_submit);
            s.ran = t_end != 0;
            if (s.ran) {
              s.queue_ms = ms(t_start - t_submit);
              s.exec_ms = ms(t_end - t_start);
              s.delivery_ms = ms(t_wake - t_end);
            }
            mine.push_back(s);
            replies.push_back({qi, opid, std::move(res)});
          }
          sync.arrive_and_wait();
          for (const Reply& rp : replies) {
            const Hot& h = hot[rp.qi];
            bytes += static_cast<double>(rp.res->byte_size());
            IdDigest got = digest_ids(rp.res->bytes(), rd.schema());
            if (a.inject_at(rp.opid - 1)) got.add(~0ULL);
            bool ok = got == h.want;
            if (traced) ok = ok && spio::crc64(rp.res->bytes()) == h.hash;
            if (!ok) failed.fetch_add(1);
          }
          replies.clear();
        }
        user_bytes.fetch_add(bytes);
      });
    for (auto& t : clients) t.join();
    return wall;
  };

  // The per-op input is a pure function of (seed, client, k), so the
  // records scanned/returned of every op are known exactly.
  const auto count_reads = [&](std::size_t per) {
    for (int c = 0; c < kClients; ++c) {
      spio::Xoshiro256 rng(
          spio::stream_seed(a.seed, 1000 + static_cast<std::uint64_t>(c)));
      for (std::size_t k = 0; k < per; ++k) {
        const Hot& h = hot[zipf_pick(cdf, rng.uniform())];
        e.scanned += h.scanned;
        e.returned += h.returned;
      }
    }
  };
  const auto latencies = [](const std::vector<std::vector<Sample>>& s) {
    std::vector<double> v;
    for (const auto& c : s)
      for (const Sample& x : c) v.push_back(x.latency_ms);
    return v;
  };

  std::vector<std::vector<Sample>> samples;
  if (!layers) {
    e.wall_s = window(per_client, false, samples);
    e.peak_rss_mb = peak_rss_mb();
    e.op_ms = latencies(samples);
    e.user_bytes = user_bytes.load();
    count_reads(per_client);
    e.attempted = n_ops;
    e.failed = failed.load();
    return e;
  }

  // Traced run: an untraced window, then a traced window over the same
  // client sequences, each op replayed through the layers and compared
  // byte for byte with its entry-point result.
  const std::size_t half = std::max<std::size_t>(1, per_client / 2);
  window(half, false, samples);
  const std::vector<double> lat_entry = latencies(samples);
  const spio::ServiceStats sv0 = svc->stats();
  const spio::ReadCacheStats cs0 = spio::ReadEngine::instance().cache_stats();
  Tracer::instance().enable(true);
  window(half, true, samples);
  Tracer::instance().enable(false);
  const spio::ServiceStats sv1 = svc->stats();
  const spio::ReadCacheStats cs1 = spio::ReadEngine::instance().cache_stats();
  e.attempted = 2 * half * kClients;
  e.failed = failed.load();

  std::vector<LayerOp> lops;
  std::vector<double> queue, exec, delivery, layer_sum;
  for (const auto& c : samples)
    for (const Sample& s : c) {
      if (!s.ran) continue;
      lops.push_back(s.L);
      queue.push_back(s.queue_ms);
      exec.push_back(s.exec_ms);
      delivery.push_back(s.delivery_ms);
      layer_sum.push_back(s.queue_ms + s.L.layer_sum_ms() + s.delivery_ms);
    }
  read_layers(*layers, lops,
              static_cast<double>(cs1.bytes_evicted - cs0.bytes_evicted));
  const std::vector<double> lat_replay = latencies(samples);
  const double followers = static_cast<double>(cs1.singleflight_followers -
                                               cs0.singleflight_followers);
  const double leaders = static_cast<double>(cs1.singleflight_leaders -
                                             cs0.singleflight_leaders);
  const double accepted = static_cast<double>(sv1.accepted - sv0.accepted);
  layers->insert(
      layers->end(),
      {{"reader.unattributed_ms", median(lat_entry) - median(layer_sum)},
       {"query_service.queue_wait_ms", median(queue)},
       {"query_service.exec_ms", median(exec)},
       {"query_service.delivery_ms", median(delivery)},
       {"query_service.coalesced_share",
        accepted > 0
            ? static_cast<double>(sv1.coalesced - sv0.coalesced) / accepted
            : 0.0},
       {"read_engine.singleflight_follower_share",
        followers + leaders > 0 ? followers / (followers + leaders) : 0.0},
       {"trace.overhead_share", median(lat_replay) / median(lat_entry) - 1.0}});
  return e;
}

}  // namespace perfbench
