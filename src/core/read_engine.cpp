#include "core/read_engine.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/kernels.hpp"
#include "simd/position_mirror.hpp"
#include "simd/simd_level.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace spio {

namespace {

int default_concurrency() {
  if (const char* env = std::getenv("SPIO_READ_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 1;
  return hw > 16 ? 16 : static_cast<int>(hw);
}

std::uint64_t default_cache_budget() {
  if (const char* env = std::getenv("SPIO_READ_CACHE")) {
    std::uint64_t bytes = 0;
    if (read_detail::parse_size_bytes(env, &bytes)) return bytes;
  }
  // Enough for the working set of a laptop-scale analysis session,
  // small next to the datasets the paper targets.
  return ReadEngine::kDefaultCacheBytes;
}

/// Windowed disk-fetch latency (leader and bypass reads only — hits and
/// followers are not fetches). Always-on like the service latency
/// histograms: two clock reads per *disk read* is noise.
void observe_fetch(std::chrono::steady_clock::time_point t0) {
  static auto& h = obs::MetricsRegistry::global().windowed("reader.fetch_us");
  h.observe(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

}  // namespace

ReadEngine& ReadEngine::instance() {
  static ReadEngine engine;
  return engine;
}

ReadEngine::ReadEngine()
    : cache_(default_cache_budget()),
      pool_(std::make_unique<ThreadPool>(default_concurrency())) {}

FileSig ReadEngine::probe(const std::filesystem::path& path) const {
  FileSig sig;
  sig.size = file_size_bytes(path);  // throws IoError when absent
  if (cache_enabled()) {
    std::error_code ec;
    const auto t = std::filesystem::last_write_time(path, ec);
    if (!ec) sig.mtime_ns = static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
  }
  return sig;
}

ReadEngine::Fetched ReadEngine::fetch(const std::filesystem::path& path,
                                      std::uint64_t prefix_bytes,
                                      const FileSig& sig,
                                      const MirrorSpec* mirror) {
  if (!cache_enabled() || prefix_bytes == 0) {
    run_fetch_hook(path, prefix_bytes);
    Fetched f;
    const auto t0 = std::chrono::steady_clock::now();
    f.owned = read_file_range(path, 0, prefix_bytes);
    observe_fetch(t0);
    f.outcome = CacheOutcome::kBypass;
    return f;
  }

  const std::string key =
      path.string() + '\1' + std::to_string(prefix_bytes);
  std::shared_ptr<const PositionMirror> cached_mirror;
  if (std::shared_ptr<const ByteBlock> data =
          cache_.lookup(key, sig, &cached_mirror)) {
    Fetched f;
    f.shared = std::move(data);
    f.mirror = std::move(cached_mirror);
    f.outcome = CacheOutcome::kHit;
    return f;
  }

  // Single flight: the first thread to miss on this key becomes the
  // leader and does the read; concurrent missers wait as followers and
  // share the leader's buffer. Exactly one disk open per cold key, no
  // matter how many queries race on it.
  std::shared_ptr<InFlight> fl;
  bool leader = false;
  {
    std::lock_guard lk(sf_mu_);
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      fl = std::make_shared<InFlight>();
      inflight_.emplace(key, fl);
      leader = true;
      ++sf_leaders_;
    } else {
      fl = it->second;
      ++sf_followers_;
    }
  }

  if (!leader) {
    obs::publish_counter("service.singleflight_follower", 1);
    std::unique_lock lk(fl->mu);
    fl->cv.wait(lk, [&] { return fl->done; });
    if (fl->error) std::rethrow_exception(fl->error);
    Fetched f;
    f.shared = fl->data;
    f.mirror = fl->mirror;
    f.outcome = CacheOutcome::kFollower;
    return f;
  }

  obs::publish_counter("service.singleflight_leader", 1);
  std::shared_ptr<const ByteBlock> data;
  std::shared_ptr<const PositionMirror> built_mirror;
  try {
    run_fetch_hook(path, prefix_bytes);
    // One-pass read into uninitialized storage (no vector zero-fill).
    const auto t0 = std::chrono::steady_clock::now();
    auto block = std::make_shared<ByteBlock>(
        static_cast<std::size_t>(prefix_bytes));
    read_file_range_into(path, 0, {block->data(), block->size()});
    observe_fetch(t0);
    data = std::move(block);
    // Build the SoA mirror once, while the freshly read prefix is still
    // warm — every warm query on this entry then skips the gather. Not
    // worth the memory when dispatch is scalar: the kernels would never
    // read it.
    if (mirror && mirror->record_size > 0 &&
        mirror->position_offset + 3 * sizeof(double) <= mirror->record_size &&
        data->size() % mirror->record_size == 0 &&
        simd::active_level() != simd::Level::kScalar) {
      built_mirror = PositionMirror::build(data->span(), mirror->record_size,
                                           mirror->position_offset);
    }
    cache_.insert(key, data, sig, built_mirror);
  } catch (...) {
    {
      std::lock_guard lk(sf_mu_);
      inflight_.erase(key);
    }
    {
      std::lock_guard lk(fl->mu);
      fl->error = std::current_exception();
      fl->done = true;
    }
    fl->cv.notify_all();
    throw;
  }
  // Unpublish the flight *before* waking the followers: a fetch arriving
  // after this point starts fresh (and will hit the cache).
  {
    std::lock_guard lk(sf_mu_);
    inflight_.erase(key);
  }
  {
    std::lock_guard lk(fl->mu);
    fl->data = data;
    fl->mirror = built_mirror;
    fl->done = true;
  }
  fl->cv.notify_all();
  Fetched f;
  f.shared = std::move(data);
  f.mirror = std::move(built_mirror);
  f.outcome = CacheOutcome::kMiss;
  return f;
}

ThreadPool& ReadEngine::pool() { return *pool_; }

int ReadEngine::concurrency() const { return pool_->concurrency(); }

bool ReadEngine::cache_enabled() const { return cache_.budget() > 0; }

std::uint64_t ReadEngine::cache_budget() const { return cache_.budget(); }

ReadCacheStats ReadEngine::cache_stats() const {
  ReadCacheStats s = cache_.stats();
  std::lock_guard lk(sf_mu_);
  s.singleflight_leaders = sf_leaders_;
  s.singleflight_followers = sf_followers_;
  return s;
}

void ReadEngine::clear_cache() { cache_.clear(); }

void ReadEngine::set_cache_budget(std::uint64_t bytes) {
  cache_.set_budget(bytes);
}

void ReadEngine::reset_cache_stats() {
  cache_.reset_stats();
  std::lock_guard lk(sf_mu_);
  sf_leaders_ = 0;
  sf_followers_ = 0;
}

void ReadEngine::set_concurrency(int threads) {
  pool_ = std::make_unique<ThreadPool>(threads);
}

void ReadEngine::set_fetch_hook(FetchHook hook) {
  std::lock_guard lk(hook_mu_);
  fetch_hook_ = std::move(hook);
}

void ReadEngine::run_fetch_hook(const std::filesystem::path& path,
                                std::uint64_t prefix_bytes) {
  FetchHook hook;
  {
    std::lock_guard lk(hook_mu_);
    hook = fetch_hook_;
  }
  if (hook) hook(path, prefix_bytes);
}

namespace read_detail {

namespace {
thread_local const DeadlineToken* t_deadline = nullptr;
}  // namespace

const DeadlineToken* current_deadline() { return t_deadline; }

void check_deadline() {
  const DeadlineToken* d = t_deadline;
  if (!d) return;
  if (std::chrono::steady_clock::now() >= d->at)
    throw TimeoutError("query deadline expired");
}

ScopedDeadline::ScopedDeadline(std::chrono::steady_clock::time_point at)
    : token_{at}, prev_(t_deadline) {
  t_deadline =
      at == std::chrono::steady_clock::time_point{} ? nullptr : &token_;
}

ScopedDeadline::ScopedDeadline(const DeadlineToken* inherited)
    : token_{}, prev_(t_deadline) {
  t_deadline = inherited;
}

ScopedDeadline::~ScopedDeadline() { t_deadline = prev_; }

bool parse_size_bytes(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str()) return false;
  std::uint64_t mult = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': mult = 1ull << 10; break;
      case 'm': case 'M': mult = 1ull << 20; break;
      case 'g': case 'G': mult = 1ull << 30; break;
      default: return false;
    }
    if (end[1] != '\0') return false;
  }
  *out = static_cast<std::uint64_t>(v) * mult;
  return true;
}

namespace {

constexpr std::size_t kNoRun = static_cast<std::size_t>(-1);

/// A ParticleBuffer holding a copy of `bytes` — the reference oracles
/// run the exact retained per-particle loops, which are written against
/// the buffer API.
ParticleBuffer materialize(std::span<const std::byte> bytes,
                           const Schema& schema) {
  ParticleBuffer buf(schema);
  buf.append_bytes(bytes);
  return buf;
}

/// Per-filter state with the component's byte offset and element type
/// hoisted out of the record loop.
struct HoistedRange {
  std::size_t offset = 0;
  bool is_f64 = true;
  double lo = 0;
  double hi = 0;
};

std::vector<HoistedRange> hoist_filters(const Schema& schema,
                                        std::span<const RangeFilter> filters) {
  std::vector<HoistedRange> hoisted;
  hoisted.reserve(filters.size());
  for (const RangeFilter& rf : filters) {
    const FieldDesc& fd = schema.fields()[rf.field];
    HoistedRange h;
    h.is_f64 = fd.type == FieldType::kF64;
    h.offset = schema.offset(rf.field) +
               static_cast<std::size_t>(rf.component) *
                   field_type_size(fd.type);
    h.lo = rf.lo;
    h.hi = rf.hi;
    hoisted.push_back(h);
  }
  return hoisted;
}

inline bool position_in_box(const std::byte* rec, std::size_t pos_off,
                            const Box3& box) {
  double p[3];
  std::memcpy(p, rec + pos_off, sizeof p);
  // Exactly Box3::contains — half-open, NaN excluded.
  return p[0] >= box.lo.x && p[0] < box.hi.x && p[1] >= box.lo.y &&
         p[1] < box.hi.y && p[2] >= box.lo.z && p[2] < box.hi.z;
}

}  // namespace

std::uint64_t filter_box(std::span<const std::byte> bytes,
                         const Schema& schema, const Box3& box,
                         ParticleBuffer& out) {
  const std::size_t rec = schema.record_size();
  SPIO_EXPECTS(rec > 0 && bytes.size() % rec == 0);
  const std::size_t n = bytes.size() / rec;
  const std::size_t pos_off = schema.offset(0);
  const std::byte* base = bytes.data();
  std::uint64_t kept = 0;
  std::size_t run_start = kNoRun;
  // Single pass: a run is copied the moment it closes, so its source
  // bytes are still in L1/L2 from the position test that closed it.
  for (std::size_t i = 0; i < n; ++i) {
    if (position_in_box(base + i * rec, pos_off, box)) {
      if (run_start == kNoRun) run_start = i;
    } else if (run_start != kNoRun) {
      out.append_records(base + run_start * rec, i - run_start);
      kept += i - run_start;
      run_start = kNoRun;
    }
  }
  if (run_start != kNoRun) {
    out.append_records(base + run_start * rec, n - run_start);
    kept += n - run_start;
  }
  return kept;
}

std::uint64_t filter_box_reference(std::span<const std::byte> bytes,
                                   const Schema& schema, const Box3& box,
                                   ParticleBuffer& out) {
  const ParticleBuffer buf = materialize(bytes, schema);
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (box.contains(buf.position(i))) {
      out.append_from(buf, i);
      ++kept;
    }
  }
  return kept;
}

std::uint64_t filter_box_ranges(std::span<const std::byte> bytes,
                                const Schema& schema, const Box3& box,
                                std::span<const RangeFilter> filters,
                                ParticleBuffer& out) {
  const std::size_t rec = schema.record_size();
  SPIO_EXPECTS(rec > 0 && bytes.size() % rec == 0);
  const std::size_t n = bytes.size() / rec;
  const std::size_t pos_off = schema.offset(0);
  const std::vector<HoistedRange> hoisted = hoist_filters(schema, filters);
  const std::byte* base = bytes.data();
  std::uint64_t kept = 0;
  std::size_t run_start = kNoRun;
  for (std::size_t i = 0; i < n; ++i) {
    const std::byte* r = base + i * rec;
    bool keep = position_in_box(r, pos_off, box);
    for (std::size_t k = 0; keep && k < hoisted.size(); ++k) {
      const HoistedRange& h = hoisted[k];
      double v;
      if (h.is_f64) {
        std::memcpy(&v, r + h.offset, sizeof(double));
      } else {
        float f;
        std::memcpy(&f, r + h.offset, sizeof(float));
        v = static_cast<double>(f);
      }
      // NaN passes, exactly as in the reference predicate.
      if (v < h.lo || v > h.hi) keep = false;
    }
    if (keep) {
      if (run_start == kNoRun) run_start = i;
    } else if (run_start != kNoRun) {
      out.append_records(base + run_start * rec, i - run_start);
      kept += i - run_start;
      run_start = kNoRun;
    }
  }
  if (run_start != kNoRun) {
    out.append_records(base + run_start * rec, n - run_start);
    kept += n - run_start;
  }
  return kept;
}

std::uint64_t filter_box_ranges_reference(std::span<const std::byte> bytes,
                                          const Schema& schema,
                                          const Box3& box,
                                          std::span<const RangeFilter> filters,
                                          ParticleBuffer& out) {
  const ParticleBuffer buf = materialize(bytes, schema);
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (!box.contains(buf.position(i))) continue;
    bool keep = true;
    for (const RangeFilter& rf : filters) {
      const FieldDesc& fd = schema.fields()[rf.field];
      const double v =
          fd.type == FieldType::kF64
              ? buf.get_f64(i, rf.field, rf.component)
              : static_cast<double>(buf.get_f32(i, rf.field, rf.component));
      if (v < rf.lo || v > rf.hi) {
        keep = false;
        break;
      }
    }
    if (keep) {
      out.append_from(buf, i);
      ++kept;
    }
  }
  return kept;
}

namespace {

/// One `kernel.simd_{hits,fallbacks}` tick per kernel dispatch. The
/// counters tell an operator whether warm queries actually ride the
/// SIMD path (a fleet stuck on fallbacks means mirrors aren't being
/// built — cache disabled, cold reads, or `SPIO_SIMD=off`).
void count_dispatch(bool simd) {
  obs::publish_counter(simd ? "kernel.simd_hits" : "kernel.simd_fallbacks", 1);
}

const char* dispatch_span_name(bool simd) {
  if (!simd) return "kernel.scalar";
  return simd::active_level() == simd::Level::kAVX2 ? "kernel.avx2"
                                                    : "kernel.sse2";
}

}  // namespace

std::uint64_t filter_box_dispatch(std::span<const std::byte> bytes,
                                  const Schema& schema, const Box3& box,
                                  const PositionMirror* mirror,
                                  ParticleBuffer& out) {
  if (mirror && simd::active_level() != simd::Level::kScalar) {
    std::uint64_t kept = 0;
    obs::ScopedSpan span(dispatch_span_name(true), "kernel");
    if (simd::filter_box(*mirror, bytes, schema.record_size(),
                         schema.offset(0), box, out, &kept)) {
      count_dispatch(true);
      return kept;
    }
  }
  obs::ScopedSpan span(dispatch_span_name(false), "kernel");
  count_dispatch(false);
  return filter_box(bytes, schema, box, out);
}

std::uint64_t filter_box_ranges_dispatch(std::span<const std::byte> bytes,
                                         const Schema& schema, const Box3& box,
                                         std::span<const RangeFilter> filters,
                                         const PositionMirror* mirror,
                                         ParticleBuffer& out) {
  if (mirror && simd::active_level() != simd::Level::kScalar) {
    // Hoist offsets/types exactly as the fused kernel does; the SIMD
    // kernel evaluates these per surviving lane from the AoS record.
    const std::vector<HoistedRange> hoisted = hoist_filters(schema, filters);
    std::vector<simd::RangePred> preds;
    preds.reserve(hoisted.size());
    for (const HoistedRange& h : hoisted)
      preds.push_back({h.offset, h.is_f64, h.lo, h.hi});
    std::uint64_t kept = 0;
    obs::ScopedSpan span(dispatch_span_name(true), "kernel");
    if (simd::filter_box_ranges(*mirror, bytes, schema.record_size(),
                                schema.offset(0), box, preds, out, &kept)) {
      count_dispatch(true);
      return kept;
    }
  }
  obs::ScopedSpan span(dispatch_span_name(false), "kernel");
  count_dispatch(false);
  return filter_box_ranges(bytes, schema, box, filters, out);
}

}  // namespace read_detail

}  // namespace spio
