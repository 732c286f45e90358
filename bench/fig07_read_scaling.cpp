/// \file fig07_read_scaling.cpp
/// Figure 7: visualization-style read strong scaling of a 2-billion-
/// particle dataset written at 64K ranks, in three variants:
///   (a) (2,2,2) aggregation with the spatial metadata file  [8K files]
///   (b) (2,2,2) aggregation without spatial metadata        [8K files]
///   (c) (1,1,1) file-per-process with spatial metadata      [64K files]
/// Part 1 models the paper's platforms (Theta 64-2048 readers, SSD
/// workstation 1-64 readers). Part 2 runs the same three variants for
/// real at workstation scale (threads-as-ranks, local files): (a) and (c)
/// are the paper's restart read at a different core count
/// (`restart_read`, one box query per reader patch), (b) has every reader
/// scan every file (`query_box_scan_all`). The read engine's prefix
/// cache is cleared before each row, so every row is a cold read; the
/// table reports planned files (disk opens plus prefixes shared with
/// another reader of the same row) and scanned megabytes per reader, and
/// the wall time.

#include <atomic>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_env.hpp"
#include "core/read_engine.hpp"
#include "core/reader.hpp"
#include "core/restart.hpp"
#include "core/writer.hpp"
#include "iosim/read_model.hpp"
#include "simmpi/runtime.hpp"
#include "util/table.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

using namespace spio;
using namespace spio::iosim;

namespace {

void model_panel(const MachineProfile& m, const std::vector<int>& readers) {
  Table t("Figure 7 (model): " + m.name +
              " — read time (s), 2^31 particles",
          {"readers", "2x2x2 with metadata", "2x2x2 no metadata",
           "1x1x1 with metadata"});
  for (const int n : readers) {
    ReadCase with_meta{8192, (1ull << 31) * 124, n, ReadMode::kWithMetadata};
    ReadCase no_meta{8192, (1ull << 31) * 124, n, ReadMode::kWithoutMetadata};
    ReadCase fpp{65536, (1ull << 31) * 124, n, ReadMode::kWithMetadata};
    t.row()
        .add_int(n)
        .add_double(model_read_seconds(m, with_meta), 1)
        .add_double(model_read_seconds(m, no_meta), 1)
        .add_double(model_read_seconds(m, fpp), 1);
  }
  t.print(std::cout);
  std::cout << '\n';
}

void functional_panel() {
  // Real files on local disk: 64 writer ranks, 4K particles each.
  constexpr int kWriters = 64;
  constexpr std::uint64_t kPerRank = 4096;
  const PatchDecomposition decomp(Box3::unit(), {4, 4, 4});

  TempDir with_meta_dir("fig07-meta"), no_meta_dir("fig07-nometa"),
      fpp_dir("fig07-fpp");
  simmpi::run(kWriters, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
        stream_seed(42, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * kPerRank);
    WriterConfig a;
    a.dir = with_meta_dir.path();
    a.factor = {2, 2, 2};
    write_dataset(comm, decomp, local, a);
    WriterConfig b = a;
    b.dir = no_meta_dir.path();
    b.write_spatial_metadata = false;
    write_dataset(comm, decomp, local, b);
    WriterConfig c = a;
    c.dir = fpp_dir.path();
    c.factor = {1, 1, 1};
    write_dataset(comm, decomp, local, c);
  });

  Table t("Figure 7 (functional, this machine): 262,144 particles, "
          "per-reader touch counts and measured wall time",
          {"readers", "variant", "files/reader", "MB scanned/reader",
           "wall (ms)"});

  for (const int readers : {1, 2, 4, 8}) {
    struct Variant {
      const char* name;
      const TempDir* dir;
      bool scan_all;
    };
    const Variant variants[] = {{"2x2x2 with metadata", &with_meta_dir, false},
                                {"2x2x2 no metadata", &no_meta_dir, true},
                                {"1x1x1 with metadata", &fpp_dir, false}};
    const PatchDecomposition tiles =
        PatchDecomposition::for_ranks(decomp.domain(), readers);
    for (const Variant& v : variants) {
      ReadEngine::instance().clear_cache();
      std::atomic<std::uint64_t> files{0}, scanned{0};
      const auto t0 = std::chrono::steady_clock::now();
      simmpi::run(readers, [&](simmpi::Comm& comm) {
        ReadStats rs;
        if (v.scan_all) {
          Dataset::open(v.dir->path())
              .query_box_scan_all(tiles.patch(comm.rank()), &rs);
        } else {
          restart_read(comm, tiles, v.dir->path(), &rs);
        }
        // A prefix another reader of this row already fetched is still a
        // planned file; files_opened alone counts only disk opens.
        files += static_cast<std::uint64_t>(rs.files_opened) + rs.cache_hits;
        scanned += rs.particles_scanned * Schema::uintah().record_size();
      });
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      t.row()
          .add_int(readers)
          .add(v.name)
          .add_double(static_cast<double>(files) / readers, 1)
          .add_double(static_cast<double>(scanned) / readers / 1e6, 2)
          .add_double(ms, 1);
    }
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  spio::bench::init_observability();
  model_panel(MachineProfile::theta(), {64, 128, 256, 512, 1024, 2048});
  model_panel(MachineProfile::ssd_workstation(), {1, 2, 4, 8, 16, 32, 64});
  functional_panel();
  std::cout << "paper reference: metadata-guided reads strong-scale; the "
               "no-metadata variant is\nslowest and does not improve with "
               "more readers; the 64K-file variant scales but\npays heavy "
               "open costs on Theta and almost none on the SSD "
               "workstation.\n";
  return 0;
}
