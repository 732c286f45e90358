#include "bench_common.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "simd/simd_level.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(t.tv_usec) * 1000;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double tail_percentile_for(std::size_t n) {
  double best = 50;
  for (const double q : {75.0, 90.0, 95.0})
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0 - 1e-9) best = q;
  return best;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB (MiB)
  return 0;
}

void start_peak_window(Report& r) {
  malloc_trim(0);
  r.header("peak_rss_reset", reset_peak_rss() ? "clear_refs" : "unavailable");
}

CpuTicks host_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

void Report::header(const std::string& key, const std::string& value) {
  std::printf("# %-22s %s\n", key.c_str(), value.c_str());
  std::fflush(stdout);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  for (const Metric& m : metrics_)
    std::printf("# %-36s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char num[64];
    // %.17g keeps every digit; NaN/inf are not JSON, report them as 0.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    js << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

void add_host_fingerprint(Report& r) {
  r.header("nproc", std::to_string(std::thread::hardware_concurrency()));
  std::string model = "unknown";
  std::ifstream cpu("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpu, line))
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  r.header("cpu_model", model);
  r.header("simd_level",
           spio::simd::level_name(spio::simd::active_level()));
  utsname u{};
  r.header("kernel", uname(&u) == 0 ? u.release : "unknown");
  r.header("build_type", PERFBENCH_BUILD_TYPE);
}

// ---- spans -----------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::record(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::uint64_t op, std::int64_t t0, std::int64_t t1) {
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, id, parent, op, t0, t1, tid});
}

std::size_t Tracer::write(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::filesystem::create_directories(path.parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return 0;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                  "{\"dropped_spans\": %llu}, \"traceEvents\": [\n",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"op\": %llu}}\n",
                 i ? "," : "", s.name, static_cast<unsigned long long>(s.tid),
                 static_cast<double>(s.t0 - base) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  return spans_.size();
}

Span::Span(const char* name, std::uint64_t parent, std::uint64_t op)
    : name_(name), parent_(parent), op_(op) {
  Tracer& t = Tracer::instance();
  if (!t.on()) return;
  id_ = t.next_id();
  t0_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  Tracer::instance().record(name_, id_, parent_, op_, t0_, now_ns());
}

// ---- output checks -----------------------------------------------------------

namespace {
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

void IdDigest::add(std::uint64_t id) {
  ++count;
  const std::uint64_t h = mix64(id + 0x9e3779b97f4a7c15ULL);
  sum += h;
  sum_sq += h * h;
}

void IdDigest::merge(const IdDigest& o) {
  count += o.count;
  sum += o.sum;
  sum_sq += o.sum_sq;
}

IdDigest digest_ids(std::span<const std::byte> bytes,
                    const spio::Schema& schema) {
  const std::size_t rec = schema.record_size();
  const std::size_t off = schema.offset(schema.index_of("id"));
  IdDigest d;
  for (std::size_t p = 0; p + rec <= bytes.size(); p += rec) {
    double id = 0;
    std::memcpy(&id, bytes.data() + p + off, sizeof id);
    d.add(static_cast<std::uint64_t>(id));
  }
  return d;
}

}  // namespace perfbench
