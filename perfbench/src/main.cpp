/// spio_perfbench — end-to-end benchmark of the spio write and read paths.
///
///   spio_perfbench --workload checkpoint|explore|serve --seed N
///                  --seconds S --trace 0|1 --work-dir DIR
///                  [--trace-out FILE] [--scale full|tiny]
///                  [--inject-wrong-every K]
///
/// Prints a header (host fingerprint, seed, op count, tail percentile),
/// one `# name value unit` line per metric, and as its last line the JSON
/// result object. See perfbench/README.md for the metrics and workloads.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<double> time_setups(const std::function<double(int rep)>& setup) {
  std::vector<double> times;
  for (int rep = 1; rep < kSetupRepeats; ++rep) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      double t = -1;
      try {
        t = setup(rep);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "spio_perfbench: set-up %d: %s\n", rep, ex.what());
      }
      const bool sent = write(fds[1], &t, sizeof t) == sizeof t;
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double t = -1;
    const bool got = read(fds[0], &t, sizeof t) == sizeof t;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || t < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("set-up failed in a child process");
    times.push_back(t);
  }
  times.push_back(setup(0));
  return times;
}

std::size_t op_count(double ops_per_second, int seconds) {
  const double n = ops_per_second * static_cast<double>(seconds);
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

void report_end_to_end(Report& r, const EndToEnd& e) {
  const double n = static_cast<double>(e.op_ms.size());
  const double q = tail_percentile_for(e.op_ms.size());
  char qs[32];
  std::snprintf(qs, sizeof qs, "p%g", q);
  r.header("tail_percentile", qs);
  r.header("fail_share", std::to_string(static_cast<double>(e.failed) /
                                        static_cast<double>(e.attempted)));
  r.metric("setup_s", median(e.setup_s), "s");
  r.metric("op_per_s", n / e.wall_s, "1/s");
  r.metric("op_p50_ms", median(e.op_ms), "ms");
  r.metric("op_tail_ms", percentile(e.op_ms, q), "ms");
  r.metric("user_mb_s", e.user_bytes / 1e6 / e.wall_s, "MB/s");
  r.metric("cpu_ms_per_op", e.cpu_s * 1e3 / n, "ms");
  r.metric("peak_rss_mb", e.peak_rss_mb, "MB");
  r.metric("scan_amplification",
           e.returned ? static_cast<double>(e.scanned) /
                            static_cast<double>(e.returned)
                      : 0.0,
           "ratio");
  r.metric("storage_overhead", e.disk_bytes / e.dataset_user_bytes, "ratio");
  r.metric("ok_share",
           1.0 - static_cast<double>(e.failed) /
                     static_cast<double>(e.attempted),
           "ratio");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      // checkpoint: the aggregator that finished last
      {"writer.setup_ms", "ms"},
      {"simmpi.meta_exchange_ms", "ms"},
      {"simmpi.particle_exchange_ms", "ms"},
      {"simmpi.sent_mb", "MB"},
      {"lod.reorder_ms", "ms"},
      {"writer.file_io_ms", "ms"},
      {"writer.commit_ms", "ms"},
      {"writer.cpu_ms", "ms"},
      {"writer.wait_ms", "ms"},
      {"writer.unattributed_ms", "ms"},
      {"lod.reorder_replay_ms", "ms"},
      {"checksum.crc64_replay_ms", "ms"},
      {"zone_map.build_replay_ms", "ms"},
      // explore + serve: the layer replay of each read op
      {"planner.plan_us", "us"},
      {"planner.files_per_op", "count"},
      {"planner.skipped_share", "ratio"},
      {"planner.lod_skipped_share", "ratio"},
      {"read_engine.fetch_ms", "ms"},
      {"read_engine.disk_mb_per_op", "MB"},
      {"prefix_cache.hit_rate", "ratio"},
      {"prefix_cache.evicted_mb_per_op", "MB"},
      {"simd.filter_ms", "ms"},
      {"simd.filter_mrec_s", "Mrec/s"},
      {"simd.mirror_share", "ratio"},
      {"reader.merge_ms", "ms"},
      {"reader.unattributed_ms", "ms"},
      // serve: the benchmark's QueryFn wrapper + service counters
      {"query_service.queue_wait_ms", "ms"},
      {"query_service.exec_ms", "ms"},
      {"query_service.delivery_ms", "ms"},
      {"query_service.coalesced_share", "ratio"},
      {"read_engine.singleflight_follower_share", "ratio"},
      // every workload
      {"trace.overhead_share", "ratio"},
  };
  return m;
}

void report_per_layer(Report& r, const LayerValues& values) {
  for (const auto& [name, unit] : per_layer_metrics()) {
    double v = 0;
    for (const auto& [k, x] : values)
      if (k == name) v = x;
    r.metric(name, v, unit);
  }
}

}  // namespace perfbench

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "spio_perfbench: %s\nusage: spio_perfbench --workload "
               "checkpoint|explore|serve --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE] [--scale full|tiny] "
               "[--inject-wrong-every K]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stoi(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--scale") a.scale = v;
    else if (k == "--inject-wrong-every") a.inject_wrong_every = std::stoi(v);
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return usage(("unknown option " + k).c_str());
  }
  if (a.work_dir.empty()) return usage("--work-dir is required");
  if (a.seconds < 1) return usage("--seconds must be >= 1");
  if (a.scale != "full" && a.scale != "tiny") return usage("bad --scale");
  if (a.workload != "checkpoint" && a.workload != "explore" &&
      a.workload != "serve")
    return usage(("unknown workload '" + a.workload + "'").c_str());

  Report r;
  r.header("workload", a.workload);
  r.header("seed", std::to_string(a.seed));
  r.header("seconds", std::to_string(a.seconds));
  r.header("trace", a.trace ? "1" : "0");
  r.header("scale", a.scale);
  add_host_fingerprint(r);

  std::error_code ec;
  std::filesystem::remove_all(a.work_dir, ec);
  std::filesystem::create_directories(a.work_dir);
  int rc = 0;
  try {
    LayerValues layers;
    EndToEnd e;
    LayerValues* lp = a.trace ? &layers : nullptr;
    const CpuTicks cpu0 = host_cpu_ticks();
    if (a.workload == "checkpoint") e = run_checkpoint(a, r, lp);
    else if (a.workload == "explore") e = run_explore(a, r, lp);
    else e = run_serve(a, r, lp);

    const CpuTicks cpu1 = host_cpu_ticks();
    if (cpu1.total > cpu0.total)
      r.header("host_steal_share",
               std::to_string(static_cast<double>(cpu1.steal - cpu0.steal) /
                              static_cast<double>(cpu1.total - cpu0.total)));
    if (a.trace) {
      report_per_layer(r, layers);
      if (!a.trace_out.empty()) {
        const std::size_t n = Tracer::instance().write(a.trace_out);
        r.header("trace_file", a.trace_out.string() + " (" +
                                   std::to_string(n) + " spans)");
      }
    } else {
      report_end_to_end(r, e);
    }
    r.print(e.failed == 0, e.attempted, e.failed);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "spio_perfbench: %s\n", ex.what());
    rc = 1;
  }
  std::filesystem::remove_all(a.work_dir, ec);
  return rc;
}
