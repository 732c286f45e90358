#include "core/writer.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>

#include "core/journal.hpp"
#include "core/metadata.hpp"
#include "core/query_plan/zone_map.hpp"
#include "faultsim/checked_io.hpp"
#include "faultsim/fault_plan.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/run_record.hpp"
#include "obs/trace.hpp"
#include "simmpi/reduce_ops.hpp"
#include "util/checksum.hpp"
#include "util/serialize.hpp"

namespace spio {

namespace {

// Point-to-point tags of the write pipeline; owned by the fault layer so
// fault plans address the same sites the writer uses.
constexpr int kTagMeta = faultsim::kTagMetaExchange;      // u64 count
constexpr int kTagData = faultsim::kTagParticleExchange;  // particle records

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Write-behind for one data file: the rank thread fills one of two
/// staging slots while this object's thread writes the other, so the
/// write syscalls leave the gather's critical path. Slots are written in
/// the order they are submitted, which is file order, and the file is
/// closed and checked on the writer thread. The first write error stops
/// that thread; the rank thread's next `next_slot` or `finish` joins it
/// and rethrows the error there.
class WriteBehind {
 public:
  WriteBehind(const std::filesystem::path& path, std::span<std::byte> slot0,
              std::span<std::byte> slot1)
      : file_(path), slots_{slot0, slot1}, thread_([this] { run(); }) {}

  /// Reached without `finish` only while an exception unwinds.
  ~WriteBehind() {
    if (thread_.joinable()) close_and_join();
  }
  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  /// The slot to fill next, once the writer is done with its previous
  /// contents.
  std::span<std::byte> next_slot() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return queued_[next_] == 0 || error_; });
    if (error_) {
      lk.unlock();
      thread_.join();
      std::rethrow_exception(error_);
    }
    return slots_[next_];
  }

  /// Hands the first `bytes` of the slot `next_slot` returned to the
  /// writer.
  void submit(std::size_t bytes) {
    SPIO_EXPECTS(bytes > 0);
    {
      const std::lock_guard lk(mu_);
      queued_[next_] = bytes;
      next_ ^= 1;
    }
    cv_.notify_all();
  }

  /// Waits until every submitted slot is written and the file is closed.
  void finish() {
    close_and_join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  /// Lets the writer write what was submitted, close the file and exit.
  void close_and_join() {
    {
      const std::lock_guard lk(mu_);
      closing_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void run() {
    try {
      for (std::size_t s = 0;; s ^= 1) {
        std::size_t bytes = 0;
        {
          std::unique_lock lk(mu_);
          cv_.wait(lk, [&] { return queued_[s] != 0 || closing_; });
          if (queued_[s] == 0) break;  // closing, and every slot written
          bytes = queued_[s];
        }
        file_.write(slots_[s].first(bytes));
        {
          const std::lock_guard lk(mu_);
          queued_[s] = 0;
        }
        cv_.notify_all();
      }
      file_.close();
    } catch (...) {
      {
        const std::lock_guard lk(mu_);
        error_ = std::current_exception();
      }
      cv_.notify_all();
    }
  }

  FileWriter file_;  // the writer thread's alone while it runs
  std::span<std::byte> slots_[2];
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t queued_[2] = {0, 0};  // bytes waiting in each slot
  std::size_t next_ = 0;            // the slot the rank thread fills next
  bool closing_ = false;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts once the members above exist
};

/// Per-axis grid state hoisted out of the binning loop: raw edge pointer,
/// dimension, and inverse nominal cell size in one flat struct, so the
/// per-particle lookup runs on registers instead of re-walking the grid's
/// vectors through the virtual interface. `operator()` reproduces
/// `AggregationGrid::locate` exactly (same estimate, same local walk
/// against the same stored edges).
struct HoistedLocator {
  struct Axis {
    const double* edges;
    std::int64_t dims;
    double lo;
    double inv;
  };
  Axis ax[3];
  std::int64_t dx, dy;

  explicit HoistedLocator(const AggregationGrid& g)
      : dx(g.dims().x), dy(g.dims().y) {
    for (int a = 0; a < 3; ++a) {
      ax[a].edges = g.edges(a).data();
      ax[a].dims = g.dims()[a];
      ax[a].lo = g.edges(a).front();
      ax[a].inv = g.inv_cell()[a];
    }
  }

  std::int64_t axis_index(int a, double p) const {
    const Axis& x = ax[a];
    const double est = (p - x.lo) * x.inv;
    std::int64_t i = est > 0.0 ? static_cast<std::int64_t>(est) : 0;
    if (i > x.dims - 1) i = x.dims - 1;
    while (i + 1 < x.dims && p >= x.edges[i + 1]) ++i;
    while (i > 0 && p < x.edges[i]) --i;
    return i;
  }

  int operator()(const Vec3d& p) const {
    return static_cast<int>(axis_index(0, p.x) +
                            dx * (axis_index(1, p.y) +
                                  dy * axis_index(2, p.z)));
  }
};

const char* heuristic_name(LodHeuristic h) {
  switch (h) {
    case LodHeuristic::kRandom:
      return "random";
    case LodHeuristic::kStride:
      return "stride";
    case LodHeuristic::kStratified:
      return "stratified";
  }
  return "unknown";
}

/// Mirror one rank's WriteStats into the metrics registry (naming scheme:
/// docs/OBSERVABILITY.md). One-shot per write, so it runs whenever
/// collection is on regardless of how hot the pipeline itself was.
void publish_write_stats(const WriteStats& s) {
  if (!obs::enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("writer.particles_sent").add(s.particles_sent);
  reg.counter("writer.bytes_sent").add(s.bytes_sent);
  reg.counter("writer.particles_written").add(s.particles_written);
  reg.counter("writer.bytes_written").add(s.bytes_written);
  reg.counter("writer.files_written")
      .add(static_cast<std::uint64_t>(s.files_written));
  if (s.was_aggregator) reg.counter("writer.aggregators").add(1);
  const auto us = [](double sec) {
    return static_cast<std::uint64_t>(sec * 1e6);
  };
  reg.counter("writer.setup_us").add(us(s.setup_seconds));
  reg.counter("writer.meta_exchange_us").add(us(s.meta_exchange_seconds));
  reg.counter("writer.particle_exchange_us")
      .add(us(s.particle_exchange_seconds));
  reg.counter("writer.reorder_us").add(us(s.reorder_seconds));
  reg.counter("writer.file_io_us").add(us(s.file_io_seconds));
  reg.counter("writer.metadata_io_us").add(us(s.metadata_io_seconds));
}

/// Flat config echo for the run record.
std::map<std::string, std::string> config_echo(const WriterConfig& c) {
  const auto yesno = [](bool b) { return std::string(b ? "true" : "false"); };
  std::map<std::string, std::string> out;
  out["factor"] = c.factor.to_string();
  out["adaptive"] = yesno(c.adaptive);
  out["adaptive_refine"] = yesno(c.adaptive_refine);
  out["lod_P"] = std::to_string(c.lod.P);
  out["lod_S"] = std::to_string(c.lod.S);
  out["heuristic"] = heuristic_name(c.heuristic);
  out["write_spatial_metadata"] = yesno(c.write_spatial_metadata);
  out["write_field_ranges"] = yesno(c.write_field_ranges);
  out["write_zone_maps"] = yesno(c.write_zone_maps);
  out["write_checksums"] = yesno(c.write_checksums);
  out["journal"] = yesno(c.journal);
  out["fault_injection"] = yesno(c.faults != nullptr);
  return out;
}

/// The failing rank's partial stats for the postmortem bundle: whatever
/// phases completed keep their timings, everything after the failure
/// point reads zero.
obs::JsonValue write_stats_to_json(const WriteStats& s) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("setup_seconds", obs::JsonValue::number(s.setup_seconds));
  out.set("meta_exchange_seconds",
          obs::JsonValue::number(s.meta_exchange_seconds));
  out.set("particle_exchange_seconds",
          obs::JsonValue::number(s.particle_exchange_seconds));
  out.set("reorder_seconds", obs::JsonValue::number(s.reorder_seconds));
  out.set("file_io_seconds", obs::JsonValue::number(s.file_io_seconds));
  out.set("metadata_io_seconds",
          obs::JsonValue::number(s.metadata_io_seconds));
  out.set("particles_sent", obs::JsonValue::number(s.particles_sent));
  out.set("bytes_sent", obs::JsonValue::number(s.bytes_sent));
  out.set("particles_written", obs::JsonValue::number(s.particles_written));
  out.set("bytes_written", obs::JsonValue::number(s.bytes_written));
  out.set("files_written",
          obs::JsonValue::number(std::int64_t{s.files_written}));
  out.set("partition_count",
          obs::JsonValue::number(std::int64_t{s.partition_count}));
  out.set("was_aggregator", obs::JsonValue::boolean(s.was_aggregator));
  return out;
}

/// Echo of the *immutable* fault plan. The injector's per-rank event log
/// is deliberately not read here: other ranks may still be appending to
/// it when one rank fails (it is only aggregatable after the job joins);
/// the flight recorder's kFault records carry the fired injections.
obs::JsonValue fault_plan_to_json(const faultsim::FaultPlan& plan) {
  using obs::JsonValue;
  JsonValue out = JsonValue::object();
  JsonValue messages = JsonValue::array();
  for (const faultsim::MessageRule& r : plan.messages) {
    JsonValue m = JsonValue::object();
    m.set("action",
          JsonValue::string(faultsim::send_action_name(r.action)));
    m.set("tag", JsonValue::number(std::int64_t{r.tag}));
    m.set("src", JsonValue::number(std::int64_t{r.src}));
    m.set("dst", JsonValue::number(std::int64_t{r.dst}));
    m.set("after", JsonValue::number(std::int64_t{r.after}));
    m.set("count", JsonValue::number(std::int64_t{r.count}));
    messages.push_back(std::move(m));
  }
  out.set("messages", std::move(messages));
  JsonValue files = JsonValue::array();
  for (const faultsim::FileRule& r : plan.files) {
    JsonValue f = JsonValue::object();
    f.set("kind", JsonValue::string(faultsim::file_fault_name(r.kind)));
    f.set("rank", JsonValue::number(std::int64_t{r.rank}));
    f.set("path_contains", JsonValue::string(r.path_contains));
    f.set("after", JsonValue::number(std::int64_t{r.after}));
    f.set("count", JsonValue::number(std::int64_t{r.count}));
    files.push_back(std::move(f));
  }
  out.set("files", std::move(files));
  JsonValue deaths = JsonValue::array();
  for (const faultsim::DeathRule& d : plan.deaths) {
    JsonValue dd = JsonValue::object();
    dd.set("rank", JsonValue::number(std::int64_t{d.rank}));
    dd.set("phase", JsonValue::string(faultsim::phase_name(d.phase)));
    deaths.push_back(std::move(dd));
  }
  out.set("deaths", std::move(deaths));
  return out;
}

void dump_write_postmortem(const WriterConfig& config, const WriteStats& stats,
                           int job_ranks, int rank,
                           faultsim::WritePhase phase, const char* reason) {
  obs::PostmortemInfo info;
  info.reason = reason;
  info.failed_rank = rank;
  info.phase = std::string(faultsim::phase_name(phase));
  info.job_ranks = job_ranks;
  info.sections.emplace_back("write_stats", write_stats_to_json(stats));
  obs::JsonValue cfg = obs::JsonValue::object();
  for (const auto& [k, v] : config_echo(config))
    cfg.set(k, obs::JsonValue::string(v));
  info.sections.emplace_back("config", std::move(cfg));
  if (config.faults)
    info.sections.emplace_back("fault_plan",
                               fault_plan_to_json(config.faults->plan()));
  obs::log::Event(obs::log::Level::kError, "write.failed")
      .kv("rank", rank)
      .kv("phase", info.phase)
      .kv("reason", reason);
  obs::save_postmortem(config.dir, info);
}

}  // namespace

namespace writer_detail {

int BinnedParticles::index_of(int partition) const {
  const auto it =
      std::lower_bound(partitions.begin(), partitions.end(), partition);
  if (it == partitions.end() || *it != partition) return -1;
  return static_cast<int>(it - partitions.begin());
}

BinnedParticles bin_particles(const ParticleBuffer& local,
                              const AggregationPlan& plan,
                              bool use_fast_path) {
  BinnedParticles out;
  if (local.empty()) return out;
  const std::size_t n = local.size();
  const std::size_t rs = local.record_size();
  const std::byte* base = local.bytes().data();
  const SpatialPartitioning& part = plan.partitioning();

  if (use_fast_path) {
    out.partitions.push_back(part.partition_of_point(local.position(0)));
    out.counts.push_back(n);
    out.payloads.emplace_back(local.bytes().begin(), local.bytes().end());
    return out;
  }

  // Pass 1: partition of every particle + histogram. Positions are read
  // straight off the AoS records (the schema pins position as field 0).
  // The concrete-grid branch trades the virtual binary search for the
  // inlined O(1) locator; both return identical indices.
  const auto nparts = static_cast<std::size_t>(plan.partition_count());
  std::vector<std::uint32_t> part_of(n);
  std::vector<std::uint64_t> hist(nparts, 0);
  if (const auto* grid = dynamic_cast<const AggregationGrid*>(&part)) {
    const HoistedLocator locate(*grid);
    for (std::size_t i = 0; i < n; ++i) {
      Vec3d pos;
      std::memcpy(&pos, base + i * rs, sizeof(Vec3d));
      const int p = locate(pos);
      part_of[i] = static_cast<std::uint32_t>(p);
      ++hist[static_cast<std::size_t>(p)];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      Vec3d pos;
      std::memcpy(&pos, base + i * rs, sizeof(Vec3d));
      const int p = part.partition_of_point(pos);
      part_of[i] = static_cast<std::uint32_t>(p);
      ++hist[static_cast<std::size_t>(p)];
    }
  }

  // Bin directory: ascending partition ids, payload capacity reserved
  // exactly but *not* value-initialized — the scatter writes every byte,
  // and zero-filling tens of MB first would double the store traffic.
  std::vector<std::int32_t> bin_of(nparts, -1);
  for (std::size_t p = 0; p < nparts; ++p) {
    if (hist[p] == 0) continue;
    bin_of[p] = static_cast<std::int32_t>(out.partitions.size());
    out.partitions.push_back(static_cast<int>(p));
    out.counts.push_back(hist[p]);
    out.payloads.emplace_back();
    out.payloads.back().reserve(hist[p] * rs);
  }

  // Pass 2: contiguous scatter, one record append per particle (a memcpy
  // within reserved capacity). Scanning the input in order keeps original
  // particle order within each bin, so the file bytes match the
  // per-particle reference exactly.
  for (std::size_t i = 0; i < n; ++i) {
    auto& payload = out.payloads[static_cast<std::size_t>(bin_of[part_of[i]])];
    const std::byte* rec = base + i * rs;
    payload.insert(payload.end(), rec, rec + rs);
  }
  return out;
}

BinnedParticles bin_particles_reference(const ParticleBuffer& local,
                                        const AggregationPlan& plan,
                                        bool use_fast_path) {
  std::map<int, ParticleBuffer> bins;
  if (!local.empty()) {
    if (use_fast_path) {
      const int p = plan.partitioning().partition_of_point(local.position(0));
      ParticleBuffer bin(local.schema());
      bin.adopt_bytes(std::vector<std::byte>(local.bytes().begin(),
                                             local.bytes().end()));
      bins.emplace(p, std::move(bin));
    } else {
      for (std::size_t i = 0; i < local.size(); ++i) {
        const int p =
            plan.partitioning().partition_of_point(local.position(i));
        auto it = bins.find(p);
        if (it == bins.end())
          it = bins.emplace(p, ParticleBuffer(local.schema())).first;
        it->second.append_from(local, i);
      }
    }
  }
  BinnedParticles out;
  for (auto& [p, bin] : bins) {
    out.partitions.push_back(p);
    out.counts.push_back(bin.size());
    out.payloads.push_back(bin.take_bytes());
  }
  return out;
}

}  // namespace writer_detail

WriteStats WriteStats::max_over(const WriteStats& a, const WriteStats& b) {
  WriteStats m;
  m.setup_seconds = std::max(a.setup_seconds, b.setup_seconds);
  m.meta_exchange_seconds =
      std::max(a.meta_exchange_seconds, b.meta_exchange_seconds);
  m.particle_exchange_seconds =
      std::max(a.particle_exchange_seconds, b.particle_exchange_seconds);
  m.reorder_seconds = std::max(a.reorder_seconds, b.reorder_seconds);
  m.file_io_seconds = std::max(a.file_io_seconds, b.file_io_seconds);
  m.metadata_io_seconds =
      std::max(a.metadata_io_seconds, b.metadata_io_seconds);
  m.particles_sent = a.particles_sent + b.particles_sent;
  m.bytes_sent = a.bytes_sent + b.bytes_sent;
  m.particles_written = a.particles_written + b.particles_written;
  m.bytes_written = a.bytes_written + b.bytes_written;
  m.files_written = a.files_written + b.files_written;
  m.partition_count = std::max(a.partition_count, b.partition_count);
  m.was_aggregator = a.was_aggregator || b.was_aggregator;
  m.used_aligned_fast_path =
      a.used_aligned_fast_path || b.used_aligned_fast_path;
  return m;
}

namespace {

/// The write pipeline proper. `stats` and `cur_phase` live in the caller
/// so the postmortem wrapper below can bundle the partial stats and the
/// phase the failing rank was in.
void write_dataset_impl(simmpi::Comm& comm, const PatchDecomposition& decomp,
                        const ParticleBuffer& local,
                        const WriterConfig& config, WriteStats& stats,
                        faultsim::WritePhase& cur_phase) {
  const int rank = comm.rank();

  // simmpi ranks are threads of one process, so every rank observes the
  // same collection state and agrees on the record-emission collectives
  // below without a broadcast.
  const bool record_run = config.run_record && obs::run_records_enabled();
  obs::ScopedSpan whole_span("write.dataset", "writer");
  obs::PhaseSpan phase("writer");

  // Rank 0 creates the dataset directory and opens the write journal
  // before anyone writes into it: from here until the metadata commit,
  // a crash leaves a journal that marks the directory incomplete.
  if (rank == 0) {
    std::error_code ec;
    std::filesystem::create_directories(config.dir, ec);
    SPIO_CHECK(!ec, IoError, "cannot create dataset directory '"
                                 << config.dir.string()
                                 << "': " << ec.message());
    if (config.journal) WriteJournal::begin(config.dir);
  }
  comm.barrier();
  // Fatal-signal black box: if the process dies mid-write, the installed
  // crash handler (when any) dumps the flight rings next to this dataset.
  obs::set_crash_dump_dir(config.dir);

  // Fault-injection plumbing: phase announcements (scripted rank death)
  // and the acknowledged exchange that recovers dropped, duplicated and
  // delayed messages. Without an injector both collapse to the plain
  // protocol.
  const auto enter_phase = [&](faultsim::WritePhase phase_id) {
    cur_phase = phase_id;
    obs::flight_record(obs::FlightType::kPhase,
                       faultsim::phase_name(phase_id).data());
    if (config.faults) config.faults->on_phase(rank, phase_id);
  };
  const auto exchange = [&](std::vector<faultsim::Outbound> out,
                            const std::vector<int>& expect, int tag) {
    if (config.faults) {
      return faultsim::reliable_exchange(comm, std::move(out), expect, tag,
                                         config.retry);
    }
    for (auto& o : out) comm.send_bytes(o.dst, tag, std::move(o.payload));
    std::vector<std::vector<std::byte>> in;
    in.reserve(expect.size());
    for (const int s : expect) in.push_back(comm.recv_message(s, tag).payload);
    return in;
  };
  enter_phase(faultsim::WritePhase::kSetup);

  // ---- step 1 + 2: aggregation grid setup and aggregator selection ----
  phase.begin("write.setup");
  auto t0 = Clock::now();
  const Box3 local_bounds = local.bounds();
  // The simulation contract is that particles lie within their owner's
  // patch; drifting particles (e.g. a checkpoint taken mid-advection)
  // break it. Detect spill collectively so every rank picks the same
  // plan construction.
  const bool my_spill =
      !local.empty() && !decomp.patch(rank).contains_box(local_bounds);
  AggregationPlan plan = [&] {
    if (config.adaptive || comm.allreduce(my_spill, simmpi::op::logical_or)) {
      // All-to-all exchange of tight extents + counts (§6); also used to
      // repair the communication sets when particles strayed.
      RankExtent mine{local_bounds, local.size()};
      const std::vector<RankExtent> extents = comm.allgather(mine);
      if (!config.adaptive) {
        return AggregationPlan::non_adaptive_with_extents(
            decomp, config.factor, config.placement, extents);
      }
      return config.adaptive_refine
                 ? AggregationPlan::adaptive_refined(
                       decomp, config.factor, config.placement, extents)
                 : AggregationPlan::adaptive(decomp, config.factor,
                                             config.placement, extents);
    }
    return AggregationPlan::non_adaptive(decomp, config.factor,
                                         config.placement);
  }();
  stats.partition_count = plan.partition_count();

  // The aligned fast path ships whole buffers without a per-particle
  // scan; it applies only when the plan is patch-aligned and this rank's
  // particles verifiably stayed home.
  const bool fast_path = plan.aligned() && !config.force_general_exchange &&
                         (local.empty() ||
                          decomp.patch(rank).contains_box(local_bounds));
  stats.used_aligned_fast_path = fast_path && !local.empty();
  stats.setup_seconds = seconds_since(t0);

  // ---- step 3: metadata exchange (counts) ----
  enter_phase(faultsim::WritePhase::kMetaExchange);
  phase.begin("write.meta_exchange");
  t0 = Clock::now();
  // On the aligned fast path the single bin is the whole local buffer;
  // materializing it is deferred until we know whether it must travel at
  // all (a self-aggregated buffer is never copied into a message).
  int fast_partition = -1;
  if (fast_path && !local.empty())
    fast_partition = plan.partitioning().partition_of_point(local.position(0));
  writer_detail::BinnedParticles bins;
  if (!fast_path) bins = writer_detail::bin_particles(local, plan, false);

  // A bin must never target a partition outside the plan's target set —
  // that aggregator would not expect our message.
  const auto check_target = [&](int p) {
    SPIO_CHECK(std::binary_search(plan.targets_of(rank).begin(),
                                  plan.targets_of(rank).end(), p),
               ConfigError,
               "rank " << rank << " holds particles for partition " << p
                       << " outside its plan target set; particles stray "
                          "outside the declared patch/extent");
  };
  if (fast_partition >= 0) check_target(fast_partition);
  for (const int p : bins.partitions) check_target(p);

  // Send a count to the aggregator of every partition we *might* feed
  // (the plan's conservative target set), so receivers can post a matching
  // number of receives without a handshake.
  std::vector<faultsim::Outbound> count_msgs;
  for (const int p : plan.targets_of(rank)) {
    std::uint64_t count = 0;
    if (p == fast_partition) {
      count = local.size();
    } else {
      const int b = bins.index_of(p);
      if (b >= 0) count = bins.counts[static_cast<std::size_t>(b)];
    }
    BinaryWriter w;
    w.write<std::uint64_t>(count);
    count_msgs.push_back({plan.aggregator_of(p), w.take()});
  }

  const int my_partition = plan.partition_owned_by(rank);
  const std::vector<int> count_senders =
      my_partition >= 0 ? plan.senders_of(my_partition) : std::vector<int>{};
  const auto count_payloads =
      exchange(std::move(count_msgs), count_senders, kTagMeta);

  std::vector<std::uint64_t> incoming_counts(count_senders.size());
  std::uint64_t incoming_total = 0;
  if (my_partition >= 0) {
    for (std::size_t i = 0; i < count_senders.size(); ++i) {
      BinaryReader r(count_payloads[i]);
      incoming_counts[i] = r.read<std::uint64_t>();
      SPIO_CHECK(r.remaining() == 0, FormatError,
                 "count message from rank " << count_senders[i]
                                            << " carries trailing bytes");
      incoming_total += incoming_counts[i];
    }
    // The metadata exchange is exactly what lets the aggregator size its
    // buffer *before* any data moves — so an infeasible aggregation can
    // be rejected here instead of running out of memory mid-exchange.
    const std::uint64_t need = incoming_total * local.record_size();
    SPIO_CHECK(config.max_aggregation_bytes == 0 ||
                   need <= config.max_aggregation_bytes,
               ConfigError,
               "aggregator " << rank << " (partition " << my_partition
                             << ") would need " << need
                             << " bytes, over the configured limit of "
                             << config.max_aggregation_bytes
                             << "; use a smaller partition factor");
  }
  stats.meta_exchange_seconds = seconds_since(t0);

  // ---- steps 4 + 5: exchange particles ----
  enter_phase(faultsim::WritePhase::kParticleExchange);
  phase.begin("write.particle_exchange");
  t0 = Clock::now();
  // Self-send elision: a bin whose aggregator is this rank is spliced
  // into the LOD order directly instead of looping through the mailbox.
  // Disabled under fault injection so scripted transport faults keep
  // addressing the same message sites as before.
  bool self_elided = false;
  std::span<const std::byte> self_bytes{};

  std::vector<faultsim::Outbound> particle_msgs;
  if (fast_partition >= 0) {
    const int agg = plan.aggregator_of(fast_partition);
    if (agg == rank && !config.faults) {
      // The whole local buffer stays home: no copy, no message.
      self_elided = true;
      self_bytes = local.bytes();
    } else {
      if (agg != rank) {
        stats.particles_sent += local.size();
        stats.bytes_sent += local.byte_size();
      }
      particle_msgs.push_back({agg, std::vector<std::byte>(
                                        local.bytes().begin(),
                                        local.bytes().end())});
    }
  }
  for (std::size_t b = 0; b < bins.bin_count(); ++b) {
    const int agg = plan.aggregator_of(bins.partitions[b]);
    if (agg == rank && !config.faults) {
      self_elided = true;
      self_bytes = bins.payloads[b];
      continue;
    }
    if (agg != rank) {
      stats.particles_sent += bins.counts[b];
      stats.bytes_sent += bins.payloads[b].size();
    }
    particle_msgs.push_back({agg, std::move(bins.payloads[b])});
  }

  // Only senders that announced a non-zero count actually ship data; an
  // elided self-send never enters the mailbox, so it is not expected.
  std::vector<int> particle_senders;
  for (std::size_t i = 0; i < count_senders.size(); ++i) {
    if (incoming_counts[i] == 0) continue;
    if (self_elided && count_senders[i] == rank) continue;
    particle_senders.push_back(count_senders[i]);
  }

  // Deterministic assembly order (ascending sender rank, the elided local
  // payload spliced at this rank's ordinal) makes the LOD order — and
  // therefore the file — reproducible and byte-identical to the
  // pre-elision protocol. The payloads are never concatenated: the order
  // points straight into them.
  const auto particle_payloads =
      exchange(std::move(particle_msgs), particle_senders, kTagData);
  const std::size_t rs = local.record_size();
  std::vector<std::span<const std::byte>> segments(particle_payloads.begin(),
                                                   particle_payloads.end());
  if (self_elided) {
    const auto at = std::upper_bound(particle_senders.begin(),
                                     particle_senders.end(), rank);
    segments.insert(segments.begin() + (at - particle_senders.begin()),
                    self_bytes);
  }
  std::uint64_t received = 0;
  for (const auto& seg : segments) {
    SPIO_CHECK(seg.size() % rs == 0, FormatError,
               "particle payload of " << seg.size()
                                      << " bytes is not a multiple of the "
                                      << rs << "-byte record");
    received += seg.size() / rs;
  }
  if (my_partition >= 0) {
    SPIO_CHECK(received == incoming_total, FormatError,
               "aggregator " << rank << " assembled " << received
                             << " particles but metadata promised "
                             << incoming_total);
  }
  stats.particle_exchange_seconds = seconds_since(t0);

  // ---- step 6: LOD order ----
  phase.begin("write.reorder");
  t0 = Clock::now();
  const std::vector<const std::byte*> order = lod_order(
      segments, rs,
      stream_seed(config.shuffle_seed,
                  static_cast<std::uint64_t>(my_partition)),
      config.heuristic);
  stats.reorder_seconds = seconds_since(t0);

  // ---- step 7: gather, zone-map, checksum and write the data file ----
  // Each chunk of the LOD order is gathered from the payloads into a
  // staging slot and, while it is in cache, folded into the zone maps,
  // field ranges and CRC. The file is written behind: a writer thread
  // writes chunk k from one slot while this thread gathers chunk k + 1
  // into the other. Under fault injection the staging buffer spans the
  // whole file instead, for the validated write's read-back and rewrite.
  enter_phase(faultsim::WritePhase::kDataWrite);
  phase.begin("write.file_io");
  t0 = Clock::now();
  FileRecord my_record;
  std::uint64_t my_crc = 0;
  std::vector<FieldRange> my_zones;
  std::uint32_t my_zone_count = 0;
  bool have_file = false;
  // Freed, like the payloads, only after the closing barrier: a rank that
  // freed it while others still allocate theirs would raise the
  // allocator's mmap threshold, and their buffers would then stay
  // resident in per-thread arenas after the job.
  std::vector<std::byte> staging;
  if (my_partition >= 0 && !order.empty()) {
    const std::size_t n = order.size();
    my_record.partition_id = static_cast<std::uint32_t>(my_partition);
    my_record.aggregator_rank = static_cast<std::uint32_t>(rank);
    my_record.particle_count = n;
    my_record.bounds = plan.partitioning().partition_box(my_partition);
    const auto path = config.dir / my_record.file_name();

    const Schema& schema = local.schema();
    std::vector<std::uint64_t> bounds;
    if (config.write_zone_maps) {
      bounds = zone_bounds(config.lod, n);
      my_zone_count = static_cast<std::uint32_t>(bounds.size() - 1);
    }
    // Gathers records [first, first + count) of the LOD order into `dst`
    // and folds them into the zone maps or the field ranges.
    const auto gather = [&](std::byte* dst, std::size_t first,
                            std::size_t count) {
      for (std::size_t k = 0; k < count; ++k)
        std::memcpy(dst + k * rs, order[first + k], rs);
      const std::span<const std::byte> records(dst, count * rs);
      // With zone maps, the file-level ranges are the union of the zones.
      if (config.write_zone_maps) {
        add_zone_maps(my_zones, records, schema, bounds, first);
      } else if (config.write_field_ranges) {
        add_field_ranges(my_record.field_ranges, records, schema);
      }
      return records;
    };
    const std::size_t chunk = std::max<std::size_t>(1, kIoChunk / rs);
    if (config.faults) {
      // Validated write: read back, compare checksums, rewrite torn or
      // corrupted attempts within a bounded budget.
      staging.resize(n * rs);
      for (std::size_t first = 0; first < n; first += chunk)
        gather(staging.data() + first * rs, first, std::min(chunk, n - first));
      my_crc = faultsim::checked_write_file(path, staging, config.faults,
                                            rank);
    } else {
      const std::size_t slot = std::min(n, chunk) * rs;
      staging.resize(2 * slot);
      const std::span<std::byte> slots(staging);
      WriteBehind file(path, slots.first(slot), slots.subspan(slot));
      Crc64 crc;
      for (std::size_t first = 0; first < n; first += chunk) {
        const std::span<const std::byte> records =
            gather(file.next_slot().data(), first, std::min(chunk, n - first));
        if (config.write_checksums) crc.update(records);
        file.submit(records.size());
      }
      file.finish();
      my_crc = crc.value();
    }
    if (config.write_zone_maps && config.write_field_ranges)
      my_record.field_ranges =
          zone_union(my_zones, my_zones.size() / my_zone_count);
    stats.particles_written = n;
    stats.bytes_written = n * rs;
    stats.files_written = 1;
    stats.was_aggregator = true;
    have_file = true;
  }
  stats.file_io_seconds = seconds_since(t0);

  // ---- step 8: gather bounds on rank 0, write the spatial metadata ----
  enter_phase(faultsim::WritePhase::kCommit);
  phase.begin("write.metadata_io");
  t0 = Clock::now();
  // Per-partition load balance (the paper's §6 adaptive-aggregation
  // motivation): rank 0 measures it at the commit point, where the
  // per-file particle counts are in hand.
  std::uint64_t lb_max = 0;
  double lb_mean = 0;
  double lb_imbalance = 0;
  BinaryWriter record_bytes;
  if (have_file) {
    my_record.serialize(record_bytes, config.write_spatial_metadata,
                        config.write_field_ranges);
    // The file checksum rides the gather wire format (it never enters the
    // frozen meta.spio layout; rank 0 splits it into checksums.spio).
    record_bytes.write<std::uint64_t>(my_crc);
    if (config.write_zone_maps) {
      // The zone table rides the same wire; rank 0 splits it into
      // zones.spio. Count first so the reader can size the blob.
      record_bytes.write<std::uint32_t>(my_zone_count);
      for (const FieldRange& z : my_zones) {
        record_bytes.write<double>(z.min);
        record_bytes.write<double>(z.max);
      }
    }
  }
  const auto gathered = comm.allgatherv<std::byte>(record_bytes.bytes());
  if (rank == 0) {
    DatasetMetadata meta;
    meta.schema = local.schema();
    meta.domain = decomp.domain();
    meta.lod = config.lod;
    meta.heuristic = config.heuristic;
    meta.has_bounds = config.write_spatial_metadata;
    meta.has_field_ranges = config.write_field_ranges;
    std::vector<ChecksumTable::Entry> crcs;
    ZoneMapTable zone_table;
    zone_table.range_count = meta.range_count();
    zone_table.lod = config.lod;
    for (const auto& from_rank : gathered) {
      if (from_rank.empty()) continue;
      BinaryReader r(from_rank);
      const FileRecord f = FileRecord::deserialize(
          r, meta.has_bounds, meta.has_field_ranges, meta.range_count());
      crcs.push_back({f.aggregator_rank, r.read<std::uint64_t>()});
      if (config.write_zone_maps) {
        FileZones fz;
        fz.aggregator_rank = f.aggregator_rank;
        fz.particle_count = f.particle_count;
        const auto nz = r.read<std::uint32_t>();
        fz.zones.resize(std::size_t{nz} * meta.range_count());
        for (FieldRange& z : fz.zones) {
          z.min = r.read<double>();
          z.max = r.read<double>();
        }
        zone_table.files.push_back(std::move(fz));
      }
      meta.total_particles += f.particle_count;
      meta.files.push_back(f);
    }
    std::sort(meta.files.begin(), meta.files.end(),
              [](const FileRecord& a, const FileRecord& b) {
                return a.partition_id < b.partition_id;
              });
    if (!meta.files.empty()) {
      std::uint64_t sum = 0;
      for (const FileRecord& f : meta.files) {
        lb_max = std::max(lb_max, f.particle_count);
        sum += f.particle_count;
      }
      lb_mean = static_cast<double>(sum) /
                static_cast<double>(meta.files.size());
      lb_imbalance =
          lb_mean > 0 ? static_cast<double>(lb_max) / lb_mean : 0.0;
      if (obs::enabled()) {
        auto& reg = obs::MetricsRegistry::global();
        reg.gauge("write.partition_particles_max")
            .set(static_cast<double>(lb_max));
        reg.gauge("write.partition_particles_mean").set(lb_mean);
        reg.gauge("write.partition_imbalance").set(lb_imbalance);
      }
    }
    if (config.write_checksums) {
      std::sort(crcs.begin(), crcs.end(),
                [](const ChecksumTable::Entry& a,
                   const ChecksumTable::Entry& b) {
                  return a.aggregator_rank < b.aggregator_rank;
                });
      ChecksumTable table;
      table.entries = std::move(crcs);
      table.save(config.dir);
    }
    meta.has_zone_maps = config.write_zone_maps && !meta.files.empty();
    if (meta.has_zone_maps) {
      std::sort(zone_table.files.begin(), zone_table.files.end(),
                [](const FileZones& a, const FileZones& b) {
                  return a.aggregator_rank < b.aggregator_rank;
                });
      // Like checksums.spio: the sidecar lands before the commit point,
      // so a metadata file never vouches for a zone table that a crash
      // kept from reaching the disk.
      if (config.faults) {
        // Under fault injection the sidecar takes the same validated
        // write as the data files, so torn/corrupt-write schedules can
        // target `zones.spio` too.
        faultsim::checked_write_file(config.dir / ZoneMapTable::kFileName,
                                     zone_table.serialize(), config.faults,
                                     rank);
      } else {
        zone_table.save(config.dir);
      }
    }
    // meta.spio is the commit point; the journal closes only after it.
    meta.save(config.dir);
    if (config.journal) WriteJournal::commit(config.dir);
    obs::log::Event(obs::log::Level::kInfo, "write.commit")
        .kv("dir", config.dir.string())
        .kv("particles", meta.total_particles)
        .kv("files", static_cast<std::uint64_t>(meta.files.size()))
        .kv("imbalance", lb_imbalance);
  }
  // The write is complete (data + metadata) only once every rank returns.
  comm.barrier();
  stats.metadata_io_seconds = seconds_since(t0);
  phase.end();
  whole_span.end();
  publish_write_stats(stats);

  if (record_run) {
    // Gather every rank's stats so rank 0 can lay down the Darshan-style
    // run record next to the dataset. All ranks take the same branch (see
    // record_run above), so the extra collective is uniform.
    static_assert(std::is_trivially_copyable_v<WriteStats>);
    const std::vector<WriteStats> all = comm.gather<WriteStats>(stats, 0);
    if (rank == 0) {
      obs::WriteRunInfo info;
      info.ranks = comm.size();
      info.schema_bytes = local.record_size();
      info.partition_count = stats.partition_count;
      info.config = config_echo(config);
      for (int r = 0; r < comm.size(); ++r) {
        const WriteStats& s = all[static_cast<std::size_t>(r)];
        info.phases.push_back({r, s.setup_seconds, s.meta_exchange_seconds,
                               s.particle_exchange_seconds, s.reorder_seconds,
                               s.file_io_seconds, s.metadata_io_seconds});
        info.totals.particles_sent += s.particles_sent;
        info.totals.bytes_sent += s.bytes_sent;
        info.totals.particles_written += s.particles_written;
        info.totals.bytes_written += s.bytes_written;
        info.totals.files_written +=
            static_cast<std::uint64_t>(s.files_written);
      }
      info.load_balance.partition_particles_max = lb_max;
      info.load_balance.partition_particles_mean = lb_mean;
      info.load_balance.imbalance = lb_imbalance;
      obs::save_write_record(config.dir, info,
                             obs::MetricsRegistry::global().snapshot());
    }
  }
}

}  // namespace

WriteStats write_dataset(simmpi::Comm& comm, const PatchDecomposition& decomp,
                         const ParticleBuffer& local,
                         const WriterConfig& config) {
  SPIO_CHECK(!config.dir.empty(), ConfigError,
             "WriterConfig.dir must be set");
  SPIO_CHECK(config.factor.valid(), ConfigError,
             "invalid partition factor " << config.factor.to_string());
  SPIO_CHECK(config.lod.valid(), ConfigError,
             "invalid LOD parameters P=" << config.lod.P
                                         << " S=" << config.lod.S);
  SPIO_CHECK(comm.size() == decomp.rank_count(), ConfigError,
             "decomposition has " << decomp.rank_count()
                                  << " patches for a job of " << comm.size()
                                  << " ranks");

  WriteStats stats;
  faultsim::WritePhase cur_phase = faultsim::WritePhase::kSetup;
  try {
    write_dataset_impl(comm, decomp, local, config, stats, cur_phase);
    return stats;
  } catch (const simmpi::Aborted&) {
    // Secondary casualty of another rank's failure: that rank owns the
    // postmortem; dumping here would overwrite it with less context.
    throw;
  } catch (const std::exception& e) {
    // A failure before rank 0 created the directory has nowhere to dump.
    std::error_code ec;
    if (std::filesystem::is_directory(config.dir, ec))
      dump_write_postmortem(config, stats, comm.size(), comm.rank(),
                            cur_phase, e.what());
    throw;
  }
}

}  // namespace spio
