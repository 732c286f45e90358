#pragma once

/// \file bench_common.hpp
/// Shared pieces of the spio end-to-end benchmark: arguments, clocks,
/// order statistics, process resource probes, the result report, the
/// benchmark-side span recorder and the order-independent ID digest used
/// by every output check.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "workload/particle_buffer.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// "full" (the published workload sizes) or "tiny" (self-test).
  std::string scale = "full";
  /// Self-test hook: corrupt the benchmark's own copy of every k-th op's
  /// result before it is checked (0 = off). The program is untouched.
  int inject_wrong_every = 0;
  /// Scratch directory for datasets; created and removed by the run.
  std::filesystem::path work_dir;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::filesystem::path trace_out;

  bool tiny() const { return scale == "tiny"; }
  /// True when op `i` (0-based) gets a deliberately wrong answer.
  bool inject_at(std::size_t i) const {
    return inject_wrong_every > 0 &&
           (i % static_cast<std::size_t>(inject_wrong_every)) == 0;
  }
};

// ---- clocks ----------------------------------------------------------------

std::int64_t now_ns();          ///< steady clock
std::int64_t thread_cpu_ns();   ///< CLOCK_THREAD_CPUTIME_ID
std::int64_t process_cpu_ns();  ///< getrusage user + sys
inline double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---- order statistics --------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile `q` in (0, 100] of `v`.
double percentile(std::vector<double> v, double q);
/// The highest percentile from a fixed ladder (p50, p75, p90, p95) that
/// leaves at least ten samples beyond it at `n` samples. The ladder stops
/// at p95: deeper, the tail measured the guest's vCPU steal more than the
/// program (ten `serve` runs at 0.2-14% steal: p95 4.3-8.3 ms, p99
/// 5.6-14.0 ms, against a p50 of 2.0-2.7 ms).
double tail_percentile_for(std::size_t n);

// ---- process probes ----------------------------------------------------------

/// Reset VmHWM to the current RSS through /proc/self/clear_refs. False
/// when the kernel does not offer the reset (the peak then covers the
/// whole process lifetime).
bool reset_peak_rss();
double peak_rss_mb();  ///< VmHWM

class Report;
/// Called once after set-up: hand the set-up's freed heap back to the
/// system and reset VmHWM, so `peak_rss_mb` covers the timed ops and not
/// what the allocator kept; the header records whether the reset worked.
void start_peak_window(Report& r);

/// Host-wide CPU time (all CPUs, /proc/stat ticks) and the part of it
/// the hypervisor stole; the run header reports the steal share so
/// noisy runs can be told apart from slow code.
struct CpuTicks {
  std::uint64_t total = 0, steal = 0;
};
CpuTicks host_cpu_ticks();

// ---- report ----------------------------------------------------------------

/// Header lines (printed at once) and metrics of one run; `print` writes
/// one `# name value unit` line per metric and the final JSON line.
class Report {
 public:
  void header(const std::string& key, const std::string& value);
  void metric(const std::string& name, double value, const std::string& unit);
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// nproc, CPU model, SIMD level, kernel release and build type.
void add_host_fingerprint(Report& r);

// ---- spans -----------------------------------------------------------------

/// In-memory span recorder for the traced run: name, start, end, parent
/// span and op id, written once at exit as Chrome trace-event JSON. Spans
/// are recorded only around the benchmark's own calls into the library.
class Tracer {
 public:
  static Tracer& instance();

  bool on() const { return on_; }
  void enable(bool on) { on_ = on; }
  std::uint64_t next_id() { return next_.fetch_add(1) + 1; }
  void record(const char* name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t op, std::int64_t t0, std::int64_t t1);
  /// Write every kept span; returns the number written.
  std::size_t write(const std::filesystem::path& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id, parent, op;
    std::int64_t t0, t1;
    std::uint64_t tid;
  };
  static constexpr std::size_t kMaxSpans = 50000;
  bool on_ = false;
  std::atomic<std::uint64_t> next_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span: a no-op unless tracing is on. `parent` and `op` link it
/// into its operation's tree.
class Span {
 public:
  Span(const char* name, std::uint64_t parent, std::uint64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0, parent_, op_;
  std::int64_t t0_ = 0;
};

// ---- output checks -----------------------------------------------------------

/// Order-independent digest of a multiset of particle IDs.
struct IdDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t sum_sq = 0;

  void add(std::uint64_t id);
  void merge(const IdDigest& o);
  bool operator==(const IdDigest&) const = default;
};

/// Digest of the `id` field of every record in `bytes` (AoS, `schema`).
IdDigest digest_ids(std::span<const std::byte> bytes, const spio::Schema& schema);

}  // namespace perfbench
