#pragma once

/// \file read_engine.hpp
/// The shared read engine every query entry point routes through
/// (docs/PERF.md "Read path"). Four jobs:
///
///   1. **Worker pool** — a process-wide bounded `ThreadPool`
///      (`SPIO_READ_THREADS=n`, default = hardware concurrency clamped
///      to 16). `Dataset`'s plan executor has the workers fetch and
///      filter a query's planned files, at most `concurrency()` ahead,
///      and delivers the per-file results in plan order, so output
///      stays byte-identical to the serial path; a pool forced to 1
///      runs every task inline and reproduces serial execution exactly.
///   2. **File-buffer cache** — an LRU cache of file *prefixes* keyed by
///      `(path, prefix_bytes)` with a byte budget
///      (`SPIO_READ_CACHE=bytes`, suffixes k/m/g accepted; default
///      256 MiB; `0` disables), one LRU behind one mutex — see
///      prefix_cache.hpp. The lock covers a map probe, a list splice and
///      any evictions; the disk read and the mirror build happen outside
///      it. Entries are validated against the file's (size, mtime)
///      signature on every hit, so a dataset rewritten in place is never
///      served stale.
///      Counters: `reader.cache.{hits,misses,bytes_evicted}`.
///   3. **Single-flight fetch** — concurrent misses on the same
///      `(path, prefix_bytes)` are deduplicated: exactly one *leader*
///      reads the file while the other callers wait as *followers* and
///      share the leader's buffer (`CacheOutcome::kFollower`). K
///      concurrent queries over a cold hot-spot cost one disk read, not
///      K. Counters: `service.singleflight_{leader,follower}`.
///   4. **Fused filter kernels** (`read_detail`) — run-detecting
///      compaction replacing the per-particle `contains` + `append_from`
///      loops: the position offset/stride is hoisted once per file and
///      contiguous matching records are copied with single `memcpy`s.
///      The original loops are retained as `*_reference` oracles
///      (mirroring `writer_detail::bin_particles_reference`), and
///      differential tests pin the fused kernels to them byte-for-byte.
///
/// `read_detail` also hosts the cooperative **deadline** machinery used
/// by the query service: a thread-local expiry instant installed with
/// `ScopedDeadline` and polled with `check_deadline()` at every
/// per-file fetch boundary, so an expired query aborts with
/// `TimeoutError` between files — never mid-buffer, never leaving the
/// cache or single-flight table corrupted.
///
/// Thread safety: `probe`/`fetch` and the cache maintenance hooks are
/// safe to call from any thread (simmpi ranks share one process and one
/// engine). `set_concurrency` swaps the pool and must not race in-flight
/// queries — call it between queries (tests only).

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/prefix_cache.hpp"
#include "util/thread_pool.hpp"
#include "workload/particle_buffer.hpp"

namespace spio {

/// A predicate on one scalar field component: keep particles with value
/// in [lo, hi]. Combined with the spatial box by `Dataset::query`
/// (re-exported there as `Dataset::RangeFilter`).
struct RangeFilter {
  std::size_t field = 0;
  std::uint32_t component = 0;
  double lo = 0;
  double hi = 0;
};

/// How a `fetch` was satisfied. `kBypass` = cache disabled (or an empty
/// prefix): a plain read, exactly the pre-engine behaviour. `kFollower`
/// = another thread's in-flight read was joined — no disk open on this
/// call, but not a cache hit either.
enum class CacheOutcome : std::uint8_t {
  kBypass = 0,
  kHit = 1,
  kMiss = 2,
  kFollower = 3,
};

class ReadEngine {
 public:
  /// Called just before every real disk read (leader and bypass paths;
  /// hits and followers never fire it) with the path and prefix length.
  /// Test/chaos hook: inject latency by sleeping, or I/O failure by
  /// throwing — a thrown exception propagates exactly like a read error
  /// (followers of a failed leader rethrow it too).
  using FetchHook = std::function<void(const std::filesystem::path&,
                                       std::uint64_t)>;

  /// The process-wide engine (thread-safe magic static). Configured from
  /// `SPIO_READ_THREADS` / `SPIO_READ_CACHE` on first use.
  static ReadEngine& instance();

  /// Tells `fetch` how the prefix's AoS records are laid out so it can
  /// build (and cache) the SoA position mirror the SIMD kernels read
  /// (simd/position_mirror.hpp): record stride and the byte offset of
  /// the f64x3 position within each record.
  struct MirrorSpec {
    std::size_t record_size = 0;
    std::size_t position_offset = 0;
  };

  /// One file prefix as returned by `fetch`: shared with the cache when
  /// the cache holds it, owned when the fetch bypassed the cache.
  struct Fetched {
    std::shared_ptr<const ByteBlock> shared;
    std::vector<std::byte> owned;
    /// SoA position mirror of `bytes()`, when the caller passed a
    /// `MirrorSpec`, the entry went through the cache, and a SIMD level
    /// is active — null otherwise (callers fall back to scalar).
    std::shared_ptr<const PositionMirror> mirror;
    CacheOutcome outcome = CacheOutcome::kBypass;

    std::span<const std::byte> bytes() const {
      return shared ? shared->span() : std::span<const std::byte>(owned);
    }
    /// The payload, moved when uniquely owned (bypass) and copied when
    /// shared with the cache — for `ParticleBuffer::adopt_bytes`.
    std::vector<std::byte> take_or_copy() {
      if (!shared) return std::move(owned);
      const std::span<const std::byte> s = shared->span();
      return std::vector<std::byte>(s.begin(), s.end());
    }
  };

  /// Stat `path` (throws `IoError` when missing). Samples mtime only
  /// when the cache is on; a disabled cache keeps the pre-engine
  /// one-stat-per-read cost.
  FileSig probe(const std::filesystem::path& path) const;

  /// The first `prefix_bytes` of `path`, through the cache and the
  /// single-flight table. `sig` must come from a `probe` of the same
  /// path (it validates cached entries and stamps fresh ones). Throws
  /// `IoError`/`FormatError` like `read_file_range` on a miss; a
  /// follower rethrows its leader's failure. With a non-null `mirror`
  /// spec, a leader miss also builds the SoA position mirror (skipped
  /// when SIMD dispatch is scalar — the mirror would never be read) and
  /// caches it with the prefix; hits and followers return the cached
  /// one in `Fetched::mirror`.
  Fetched fetch(const std::filesystem::path& path, std::uint64_t prefix_bytes,
                const FileSig& sig, const MirrorSpec* mirror = nullptr);

  /// The shared worker pool (size = `concurrency()`).
  ThreadPool& pool();
  /// Maximum concurrent per-file reads (1 = serial, inline).
  int concurrency() const;

  /// The cache budget when `SPIO_READ_CACHE` is unset.
  static constexpr std::uint64_t kDefaultCacheBytes = 256ull << 20;

  bool cache_enabled() const;
  std::uint64_t cache_budget() const;
  /// The cache's counters plus the engine's single-flight counters.
  ReadCacheStats cache_stats() const;

  // -- maintenance / test hooks ------------------------------------------
  /// Drop every cached entry (counted as evictions).
  void clear_cache();
  /// Re-budget the cache; 0 disables it (and drops residents). Counters
  /// are preserved. Only tests call it: the engine reads
  /// `SPIO_READ_CACHE` once, at first use, so an in-process test has no
  /// other way to get a bounded or disabled cache.
  void set_cache_budget(std::uint64_t bytes);
  /// Zero the hit/miss/eviction and single-flight counters (residents
  /// stay).
  void reset_cache_stats();
  /// Swap the worker pool for one of `threads`. Must not race in-flight
  /// queries. Only tests call it: the engine reads `SPIO_READ_THREADS`
  /// once, at first use, so an in-process test has no other way to get
  /// a serial pool (or a wider one) after the engine exists.
  void set_concurrency(int threads);
  /// Install (or, with nullptr, remove) the pre-read hook. Must not race
  /// in-flight queries — tests install it while the service is idle.
  void set_fetch_hook(FetchHook hook);

 private:
  ReadEngine();

  /// One in-flight read that followers wait on.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const ByteBlock> data;
    std::shared_ptr<const PositionMirror> mirror;  // may be null
    std::exception_ptr error;
  };

  void run_fetch_hook(const std::filesystem::path& path,
                      std::uint64_t prefix_bytes);

  PrefixCache cache_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex sf_mu_;  // guards inflight_ and the sf_* counters
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  std::uint64_t sf_leaders_ = 0;
  std::uint64_t sf_followers_ = 0;

  std::mutex hook_mu_;
  FetchHook fetch_hook_;
};

namespace read_detail {

/// Parse a byte-size string with an optional k/m/g suffix (binary
/// multiples); the `SPIO_READ_CACHE` syntax. Returns false on garbage.
bool parse_size_bytes(const std::string& text, std::uint64_t* out);

// -- cooperative deadlines -----------------------------------------------

/// A query's expiry instant, installed thread-locally for the duration
/// of its execution.
struct DeadlineToken {
  std::chrono::steady_clock::time_point at;
};

/// The calling thread's active deadline (nullptr when none). Engine pool
/// lambdas capture this at submit time and re-install it on the worker
/// via `ScopedDeadline`, so per-file fetches honor the query's deadline
/// across threads.
const DeadlineToken* current_deadline();

/// Throw `TimeoutError` if the calling thread's deadline has passed.
/// Polled at per-file fetch boundaries — cheap (one TLS load when no
/// deadline is set) and always at a point where no shared state is held.
void check_deadline();

/// RAII install/restore of the thread's deadline.
class ScopedDeadline {
 public:
  /// Install `at` as the deadline; a default-constructed (epoch) time
  /// point installs "no deadline" (clearing any inherited one).
  explicit ScopedDeadline(std::chrono::steady_clock::time_point at);
  /// Re-install a deadline captured on another thread with
  /// `current_deadline()` (may be nullptr). The token must outlive this
  /// scope — guaranteed when the capturing query drains its pool futures
  /// before returning.
  explicit ScopedDeadline(const DeadlineToken* inherited);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  DeadlineToken token_;
  const DeadlineToken* prev_;
};

// -- fused filter kernels -------------------------------------------------

/// Fused spatial filter: append every record of `bytes` whose position
/// lies in `box` (half-open, `Box3::contains`) to `out`, copying each
/// contiguous matching run with a single `memcpy` the moment the run
/// closes — while its bytes are still cache-hot from the scan. Returns
/// the number of records appended. Record order is preserved, so the
/// output is byte-identical to `filter_box_reference`. Callers that know
/// an upper bound should `reserve` `out` first to avoid regrowth.
std::uint64_t filter_box(std::span<const std::byte> bytes,
                         const Schema& schema, const Box3& box,
                         ParticleBuffer& out);

/// The retained pre-engine loop (`box.contains(position(i))` +
/// `append_from`), the differential-testing oracle for `filter_box`.
std::uint64_t filter_box_reference(std::span<const std::byte> bytes,
                                   const Schema& schema, const Box3& box,
                                   ParticleBuffer& out);

/// Fused spatial + attribute filter (the `Dataset::query` kernel): keep
/// records inside `box` whose filtered field components all fall in
/// their [lo, hi]. Field offsets and element types are hoisted once;
/// matching runs are copied with single `memcpy`s. NaN component values
/// pass a filter, exactly as in the reference (`!(v < lo || v > hi)`).
std::uint64_t filter_box_ranges(std::span<const std::byte> bytes,
                                const Schema& schema, const Box3& box,
                                std::span<const RangeFilter> filters,
                                ParticleBuffer& out);

/// The retained pre-engine loop, oracle for `filter_box_ranges`.
std::uint64_t filter_box_ranges_reference(std::span<const std::byte> bytes,
                                          const Schema& schema,
                                          const Box3& box,
                                          std::span<const RangeFilter> filters,
                                          ParticleBuffer& out);

// -- SIMD dispatch --------------------------------------------------------
//
// The read path calls these instead of the fused kernels directly. With
// a non-null `mirror` (built by `ReadEngine::fetch` from a `MirrorSpec`)
// and a SIMD level active, the vectorized kernels in src/simd run over
// the mirror — output byte-identical to the fused/reference kernels —
// and `kernel.simd_hits` counts one; otherwise the fused scalar kernel
// runs and `kernel.simd_fallbacks` counts one. Each dispatch opens a
// `kernel` trace span tagged scalar/sse2/avx2.

std::uint64_t filter_box_dispatch(std::span<const std::byte> bytes,
                                  const Schema& schema, const Box3& box,
                                  const PositionMirror* mirror,
                                  ParticleBuffer& out);

std::uint64_t filter_box_ranges_dispatch(std::span<const std::byte> bytes,
                                         const Schema& schema, const Box3& box,
                                         std::span<const RangeFilter> filters,
                                         const PositionMirror* mirror,
                                         ParticleBuffer& out);

}  // namespace read_detail

}  // namespace spio
