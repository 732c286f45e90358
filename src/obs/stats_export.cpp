#include "obs/stats_export.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "obs/access_profile.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace spio::obs {

namespace {

/// Cumulative-counter delta between two snapshots (0 when absent).
std::uint64_t delta(const MetricsRegistry::Snapshot& now,
                    const MetricsRegistry::Snapshot& prev,
                    const std::string& name) {
  const auto it = now.counters.find(name);
  if (it == now.counters.end()) return 0;
  const auto pit = prev.counters.find(name);
  const std::uint64_t before = pit == prev.counters.end() ? 0 : pit->second;
  return it->second >= before ? it->second - before : 0;
}

std::uint64_t counter_of(const MetricsRegistry::Snapshot& s,
                         const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double gauge_of(const MetricsRegistry::Snapshot& s, const std::string& name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

std::uint64_t slo_budget_us() {
  static const std::uint64_t us = [] {
    const char* v = std::getenv("SPIO_SLO_MS");
    if (!v || !*v) return std::uint64_t{0};
    const long long ms = std::atoll(v);
    return ms > 0 ? static_cast<std::uint64_t>(ms) * 1000 : std::uint64_t{0};
  }();
  return us;
}

TelemetryExporter& TelemetryExporter::instance() {
  static TelemetryExporter* e = new TelemetryExporter();  // leaked: see Tracer
  return *e;
}

bool TelemetryExporter::parse_spec(std::string_view spec,
                                   std::chrono::milliseconds& interval,
                                   std::string& path) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= spec.size()) {
    return false;
  }
  long long ms = 0;
  for (char c : spec.substr(0, colon)) {
    if (c < '0' || c > '9') return false;
    ms = ms * 10 + (c - '0');
    if (ms > 3600'000) return false;  // cap at an hour; reject overflow
  }
  if (ms <= 0) return false;
  interval = std::chrono::milliseconds(ms);
  path = std::string(spec.substr(colon + 1));
  return true;
}

bool TelemetryExporter::start(std::chrono::milliseconds interval,
                              std::string path) {
  std::lock_guard lk(mu_);
  if (thread_.joinable()) return false;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  file_ = f;
  path_ = std::move(path);
  interval_ = interval;
  stop_requested_ = false;
  seq_ = 0;
  last_ts_us_ = now_us();
  prev_ = MetricsRegistry::global().snapshot();
  detail::g_telemetry.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { run_loop(); });
  static const bool at_exit_registered = [] {
    std::atexit([] { TelemetryExporter::instance().stop(); });
    return true;
  }();
  (void)at_exit_registered;
  return true;
}

void TelemetryExporter::stop() {
  std::thread t;
  {
    std::lock_guard lk(mu_);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
    t = std::move(thread_);
  }
  cv_.notify_all();
  t.join();
  std::lock_guard lk(mu_);
  emit_sample(/*final_sample=*/true);
  detail::g_telemetry.store(false, std::memory_order_relaxed);
  std::fclose(file_);
  file_ = nullptr;
}

void TelemetryExporter::run_loop() {
  std::unique_lock lk(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lk, interval_, [this] { return stop_requested_; })) break;
    emit_sample(/*final_sample=*/false);
  }
}

void TelemetryExporter::emit_sample(bool final_sample) {
  auto& reg = MetricsRegistry::global();
  const MetricsRegistry::Snapshot now = reg.snapshot();
  const double ts = now_us();
  const double dt_s = (ts - last_ts_us_) / 1e6;

  JsonValue line = JsonValue::object();
  line.set("format", JsonValue::string("spio.stats"));
  line.set("version", JsonValue::number(1));
  line.set("seq", JsonValue::number(seq_));
  line.set("ts_us", JsonValue::number(ts));
  line.set("interval_ms",
           JsonValue::number(static_cast<std::uint64_t>(interval_.count())));
  line.set("final", JsonValue::boolean(final_sample));

  JsonValue derived = JsonValue::object();
  const std::uint64_t completed = delta(now, prev_, "service.completed");
  derived.set("qps", JsonValue::number(
                         dt_s > 0 ? static_cast<double>(completed) / dt_s
                                  : 0.0));
  derived.set("queue_depth",
              JsonValue::number(gauge_of(now, "service.queue_depth")));
  derived.set("queue_depth_max",
              JsonValue::number(gauge_of(now, "service.queue_depth_max")));
  const std::uint64_t hits = delta(now, prev_, "reader.cache.hits");
  const std::uint64_t misses = delta(now, prev_, "reader.cache.misses");
  derived.set("cache_hit_rate", JsonValue::number(ratio(hits, hits + misses)));
  derived.set("coalesce_rate",
              JsonValue::number(
                  ratio(delta(now, prev_, "service.coalesced"), completed)));
  const std::uint64_t sf_leader =
      delta(now, prev_, "service.singleflight_leader");
  const std::uint64_t sf_follower =
      delta(now, prev_, "service.singleflight_follower");
  derived.set("singleflight_follower_share",
              JsonValue::number(ratio(sf_follower, sf_leader + sf_follower)));
  derived.set("slo_ms", JsonValue::number(slo_budget_us() / 1000));
  derived.set("slo_violations",
              JsonValue::number(delta(now, prev_, "service.slo_violations")));
  derived.set("slo_violations_total",
              JsonValue::number(counter_of(now, "service.slo_violations")));
  // Windowed read amplification: disk bytes per returned byte over this
  // tick only (the reader.read_amplification gauge below is cumulative
  // particles scanned per particle returned).
  derived.set("read_amplification",
              JsonValue::number(ratio(delta(now, prev_, "reader.bytes_read"),
                                      delta(now, prev_,
                                            "reader.bytes_returned"))));
  line.set("derived", std::move(derived));

  // Top-N hot files this tick from the spatial access profiler: ranked
  // by bytes *scanned* (not fetched — a fully-warm hot file reads no
  // disk but is still hot).
  {
    struct Hot {
      const AccessProfiler::FileSnapshot* f;
      std::uint64_t bytes;
      std::uint64_t accesses;
    };
    const std::vector<AccessProfiler::FileSnapshot> files =
        AccessProfiler::instance().snapshot_files(/*touched_only=*/true);
    std::vector<Hot> hot;
    std::unordered_map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        cur;
    cur.reserve(files.size());
    for (const auto& f : files) {
      const std::string key = f.dataset + '/' + f.name;
      cur.emplace(key, std::make_pair(f.bytes_scanned, f.accesses));
      const auto pit = prev_hot_.find(key);
      const std::uint64_t pb = pit == prev_hot_.end() ? 0 : pit->second.first;
      const std::uint64_t pa = pit == prev_hot_.end() ? 0 : pit->second.second;
      if (f.bytes_scanned > pb)
        hot.push_back(Hot{&f, f.bytes_scanned - pb, f.accesses - pa});
    }
    std::sort(hot.begin(), hot.end(),
              [](const Hot& a, const Hot& b) { return a.bytes > b.bytes; });
    if (hot.size() > 5) hot.resize(5);
    JsonValue hot_files = JsonValue::array();
    for (const Hot& h : hot) {
      JsonValue e = JsonValue::object();
      e.set("file", JsonValue::string(h.f->name));
      e.set("dataset", JsonValue::string(h.f->dataset));
      e.set("bytes", JsonValue::number(h.bytes));
      e.set("accesses", JsonValue::number(h.accesses));
      hot_files.push_back(std::move(e));
    }
    line.set("hot_files", std::move(hot_files));
    prev_hot_ = std::move(cur);
  }

  JsonValue windows = JsonValue::object();
  for (const auto& [name, w] : now.windows) {
    JsonValue v = JsonValue::object();
    v.set("count", JsonValue::number(w.count));
    v.set("mean", JsonValue::number(
                      w.count ? static_cast<double>(w.sum) /
                                    static_cast<double>(w.count)
                              : 0.0));
    v.set("p50", JsonValue::number(w.p50));
    v.set("p95", JsonValue::number(w.p95));
    v.set("p99", JsonValue::number(w.p99));
    v.set("total_count", JsonValue::number(w.total_count));
    windows.set(name, std::move(v));
  }
  line.set("windows", std::move(windows));

  JsonValue counters = JsonValue::object();
  for (const auto& [name, v] : now.counters)
    counters.set(name, JsonValue::number(v));
  line.set("counters", std::move(counters));

  JsonValue gauges = JsonValue::object();
  for (const auto& [name, v] : now.gauges)
    gauges.set(name, JsonValue::number(v));
  line.set("gauges", std::move(gauges));

  // One write + flush per line: a concurrent tail never sees a torn
  // record, and a crash costs at most the in-progress tick.
  std::string text = line.dump();
  text.push_back('\n');
  std::fwrite(text.data(), 1, text.size(), file_);
  std::fflush(file_);

  // Start the next window: rotate quantile epochs and re-arm the
  // queue-depth watermark at the current depth.
  reg.rotate_windows();
  reg.gauge("service.queue_depth_max")
      .set(gauge_of(now, "service.queue_depth"));

  prev_ = now;
  last_ts_us_ = ts;
  ++seq_;
}

void TelemetryExporter::init_from_env() {
  const char* spec = std::getenv("SPIO_STATS");
  if (!spec || !*spec) return;
  std::chrono::milliseconds interval{0};
  std::string path;
  if (!parse_spec(spec, interval, path)) return;
  start(interval, std::move(path));
}

}  // namespace spio::obs
