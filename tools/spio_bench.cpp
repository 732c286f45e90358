/// \file spio_bench.cpp
/// Parameterized write/read benchmark for the spio pipeline on the local
/// machine — this library's h5perf. It writes a synthetic Uintah-style
/// workload with a sweep of partition factors, reporting per-phase times
/// (the real Fig. 6 breakdown at laptop scale), then measures read
/// strong scaling on the best configuration: each reader count restarts
/// the dataset through `restart_read`, one box query per reader patch.
///
/// Usage:
///   spio_bench [--ranks N] [--particles P] [--reps R] [--dir path]
///              [--factors f1,f2,...]   (factors like 2x2x1)
///              [--json FILE] [--trace FILE]
///
/// `--json FILE` writes the sweep's numbers as one JSON document.
/// `--trace FILE` turns on the observability layer for the whole run and
/// writes the merged Chrome trace-event JSON (chrome://tracing, Perfetto)
/// to FILE on exit; `spio_trace FILE` renders it as a phase table.
///
/// The measured, noise-characterized benchmark of this repository is
/// perfbench (perfbench/README.md); this tool is a quick interactive
/// sweep and the artifact source of the `obs_artifact_*` ctest entries.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/restart.hpp"
#include "core/writer.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "simmpi/runtime.hpp"
#include "util/table.hpp"
#include "util/temp_dir.hpp"
#include "util/units.hpp"
#include "workload/generators.hpp"

using namespace spio;
using obs::JsonValue;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool parse_factor(const std::string& s, PartitionFactor* out) {
  int px = 0, py = 0, pz = 0;
  if (std::sscanf(s.c_str(), "%dx%dx%d", &px, &py, &pz) != 3) return false;
  *out = {px, py, pz};
  return out->valid();
}

void write_json(const std::string& path, const JsonValue& doc) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "cannot open '" << path << "' for writing\n";
    std::exit(1);
  }
  f << doc.dump() << "\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  int ranks = 16;
  std::uint64_t particles = 20000;
  int reps = 3;
  std::filesystem::path base;
  std::string json_path;
  std::filesystem::path trace_path;
  std::vector<PartitionFactor> factors = {
      {1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}, {4, 2, 2}};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ranks") ranks = std::atoi(next());
    else if (arg == "--particles") particles = std::strtoull(next(), nullptr, 10);
    else if (arg == "--reps") reps = std::atoi(next());
    else if (arg == "--dir") base = next();
    else if (arg == "--json") json_path = next();
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--factors") {
      factors.clear();
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        PartitionFactor f;
        if (!parse_factor(tok, &f)) {
          std::cerr << "bad factor '" << tok << "'\n";
          return 2;
        }
        factors.push_back(f);
      }
    } else {
      std::cerr << "usage: spio_bench [--ranks N] [--particles P] "
                   "[--reps R] [--dir path] [--factors f1,f2,...] "
                   "[--json FILE] [--trace FILE]\n";
      return 2;
    }
  }
  if (ranks < 1 || reps < 1 || factors.empty()) {
    std::cerr << "invalid parameters\n";
    return 2;
  }

  obs::init_from_env();  // honor SPIO_TRACE / SPIO_LOG like the tests do
  if (!trace_path.empty()) obs::enable();

  TempDir scratch("spio-bench");
  const std::filesystem::path work = base.empty() ? scratch.path() : base;
  const PatchDecomposition decomp =
      PatchDecomposition::for_ranks(Box3::unit(), ranks);
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(ranks) *
                                    particles *
                                    Schema::uintah().record_size();

  std::cout << "spio_bench: " << ranks << " ranks x " << particles
            << " particles (" << format_bytes(total_bytes)
            << " per write), best of " << reps << " reps\n\n";

  JsonValue writes = JsonValue::array();

  Table wt("write sweep", {"factor", "files", "write (ms)", "GB/s",
                           "agg %", "shuffle %", "file I/O %"});
  PartitionFactor best{1, 1, 1};
  double best_ms = 1e300;
  for (const PartitionFactor f : factors) {
    if (file_count(decomp.grid(), f) > ranks) continue;
    double best_rep = 1e300;
    WriteStats job{};
    for (int rep = 0; rep < reps; ++rep) {
      WriteStats rep_job{};
      std::mutex mu;
      const auto t0 = std::chrono::steady_clock::now();
      simmpi::run(ranks, [&](simmpi::Comm& comm) {
        const auto local = workload::uniform(
            Schema::uintah(), decomp.patch(comm.rank()), particles,
            stream_seed(1000 + rep, static_cast<std::uint64_t>(comm.rank())),
            static_cast<std::uint64_t>(comm.rank()) * particles);
        WriterConfig cfg;
        cfg.dir = work / ("w_" + f.to_string() + "_" + std::to_string(rep));
        cfg.factor = f;
        const WriteStats s = write_dataset(comm, decomp, local, cfg);
        std::lock_guard lk(mu);
        rep_job = WriteStats::max_over(rep_job, s);
      });
      const double ms = seconds_since(t0) * 1e3;
      if (ms < best_rep) {
        best_rep = ms;
        job = rep_job;
      }
    }
    const double t = job.total_seconds();
    wt.row()
        .add(f.to_string())
        .add_int(job.files_written)
        .add_double(best_rep, 1)
        .add_double(throughput_gbs(total_bytes, best_rep / 1e3), 3)
        .add_double(100.0 * (job.meta_exchange_seconds +
                             job.particle_exchange_seconds) /
                        t,
                    1)
        .add_double(100.0 * job.reorder_seconds / t, 1)
        .add_double(100.0 * job.file_io_seconds / t, 1);
    JsonValue& w = writes.push_back(JsonValue::object());
    w.set("factor", JsonValue::string(f.to_string()));
    w.set("files", JsonValue::number(job.files_written));
    w.set("write_ms", JsonValue::number(best_rep));
    w.set("gbs", JsonValue::number(throughput_gbs(total_bytes, best_rep / 1e3)));
    w.set("meta_exchange_s", JsonValue::number(job.meta_exchange_seconds));
    w.set("particle_exchange_s",
          JsonValue::number(job.particle_exchange_seconds));
    w.set("reorder_s", JsonValue::number(job.reorder_seconds));
    w.set("file_io_s", JsonValue::number(job.file_io_seconds));
    w.set("metadata_io_s", JsonValue::number(job.metadata_io_seconds));
    if (best_rep < best_ms) {
      best_ms = best_rep;
      best = f;
    }
  }
  wt.print(std::cout);

  // Read strong scaling on the best configuration's first rep.
  const auto dataset = work / ("w_" + best.to_string() + "_0");
  Table rt("read strong scaling on " + best.to_string() + " dataset",
           {"readers", "read (ms)", "files/reader", "GB/s"});
  JsonValue reads = JsonValue::array();
  for (int readers = 1; readers <= ranks; readers *= 2) {
    double best_rep = 1e300;
    std::uint64_t files = 0;
    const PatchDecomposition tiles =
        PatchDecomposition::for_ranks(decomp.domain(), readers);
    for (int rep = 0; rep < reps; ++rep) {
      std::atomic<std::uint64_t> opened{0};
      const auto t0 = std::chrono::steady_clock::now();
      simmpi::run(readers, [&](simmpi::Comm& comm) {
        ReadStats rs;
        restart_read(comm, tiles, dataset, &rs);
        // A cached prefix is still a planned file; files_opened alone
        // counts only disk opens, which the first reader count warms.
        opened += static_cast<std::uint64_t>(rs.files_opened) + rs.cache_hits;
      });
      const double ms = seconds_since(t0) * 1e3;
      if (ms < best_rep) {
        best_rep = ms;
        files = opened;
      }
    }
    rt.row()
        .add_int(readers)
        .add_double(best_rep, 1)
        .add_double(static_cast<double>(files) / readers, 1)
        .add_double(throughput_gbs(total_bytes, best_rep / 1e3), 3);
    JsonValue& r = reads.push_back(JsonValue::object());
    r.set("readers", JsonValue::number(readers));
    r.set("read_ms", JsonValue::number(best_rep));
    r.set("files_per_reader",
          JsonValue::number(static_cast<double>(files) / readers));
    r.set("gbs", JsonValue::number(throughput_gbs(total_bytes, best_rep / 1e3)));
  }
  rt.print(std::cout);
  if (!json_path.empty()) {
    JsonValue doc = JsonValue::object();
    doc.set("bench", JsonValue::string("write_sweep"));
    doc.set("ranks", JsonValue::number(ranks));
    doc.set("particles_per_rank", JsonValue::number(particles));
    doc.set("total_bytes", JsonValue::number(total_bytes));
    doc.set("write", std::move(writes));
    doc.set("best_factor", JsonValue::string(best.to_string()));
    doc.set("read", std::move(reads));
    write_json(json_path, doc);
  }
  if (!trace_path.empty()) {
    obs::Tracer::instance().write_chrome_trace(trace_path);
    std::cout << "trace written to " << trace_path.string() << "\n";
  }
  return 0;
}
