#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "core/journal.hpp"
#include "core/metadata.hpp"
#include "core/query_plan/zone_map.hpp"
#include "core/reader.hpp"
#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/checksum.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// A write whose bytes the device refuses must fail, however few bytes
/// stdio buffered, and must not leave a directory that reads as a
/// complete dataset. Each case points one file of the dataset at
/// `/dev/full` (every write fails with ENOSPC) before the write.

const std::filesystem::path kFull = "/dev/full";

/// Current thread count of this process (Linux; 0 elsewhere).
int process_thread_count() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "Threads:") {
      int n = 0;
      f >> n;
      return n;
    }
    f.ignore(4096, '\n');
  }
  return 0;
}

/// The thread count once it has settled back to `expected`, polled for
/// up to 2 s: `pthread_join` can return before the kernel drops the
/// exited thread from `Threads:`. A leaked thread never settles, so the
/// caller's equality check still fails on it.
int thread_count_settled_to(int expected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  int n = process_thread_count();
  while (n != expected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = process_thread_count();
  }
  return n;
}

/// Writes `per_rank` Uintah records from each of `ranks` ranks into one
/// aggregator (rank 0, so `File_0.bin`); returns the error text, or an
/// empty string if the write returned normally.
std::string write_into(const std::filesystem::path& dir, int ranks,
                       std::uint64_t per_rank, bool journal) {
  const PatchDecomposition decomp(Box3({0, 0, 0}, {4, 4, 4}),
                                  Vec3i{ranks, 1, 1});
  WriterConfig cfg;
  cfg.dir = dir;
  cfg.factor = {1, 1, 1};
  cfg.journal = journal;
  try {
    simmpi::run(ranks, [&](simmpi::Comm& comm) {
      const ParticleBuffer local = workload::uniform(
          Schema::uintah(), decomp.patch(comm.rank()), per_rank,
          stream_seed(5, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * per_rank);
      write_dataset(comm, decomp, local, cfg);
    });
  } catch (const IoError& e) {
    return e.what();
  }
  return {};
}

class WriteErrors : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists(kFull))
      GTEST_SKIP() << "no /dev/full on this host";
  }
};

TEST_F(WriteErrors, DataFileOnAFullDeviceFailsAtEverySize) {
  const std::uint64_t chunk = kIoChunk / Schema::uintah().record_size();
  // One record and eight stay inside stdio's buffer, so they fail only
  // at the writer thread's close; larger files fail at a write, after
  // both slots have been handed over, with one rank and with four.
  struct Case {
    int ranks;
    std::uint64_t per_rank;
  };
  for (const Case c : {Case{1, 1}, Case{1, 8}, Case{1, 100},
                       Case{1, 3 * chunk + 7}, Case{4, chunk}}) {
    TempDir dir("spio-write-errors");
    std::filesystem::create_symlink(kFull, dir.path() / "File_0.bin");
    const int threads_before = process_thread_count();
    const std::string err = write_into(dir.path(), c.ranks, c.per_rank, true);
    EXPECT_NE(err.find("short write to '"), std::string::npos)
        << c.ranks << " x " << c.per_rank << " records: '" << err << "'";
    // The writer thread is joined on the error path.
    EXPECT_EQ(thread_count_settled_to(threads_before), threads_before);
    // The journal still marks the directory incomplete.
    EXPECT_TRUE(WriteJournal::present(dir.path()));
    EXPECT_FALSE(std::filesystem::exists(dir.path() /
                                         DatasetMetadata::kFileName));
    EXPECT_ANY_THROW(Dataset::open(dir.path()));
  }
}

TEST_F(WriteErrors, SidecarOnAFullDeviceFails) {
  // The journal's begin removes a stale meta.spio and its sidecars, so
  // these cases write without one: nothing else could catch the loss.
  for (const char* name : {DatasetMetadata::kFileName, ZoneMapTable::kFileName,
                           ChecksumTable::kFileName}) {
    TempDir dir("spio-write-errors");
    std::filesystem::create_symlink(kFull, dir.path() / name);
    const std::string err = write_into(dir.path(), 1, 100, false);
    EXPECT_NE(err.find("short write to '"), std::string::npos)
        << name << ": '" << err << "'";
  }
}

TEST_F(WriteErrors, JournalOnAFullDeviceFailsBeforeAnyData) {
  TempDir dir("spio-write-errors");
  std::filesystem::create_symlink(kFull,
                                  dir.path() / WriteJournal::kFileName);
  const std::string err = write_into(dir.path(), 1, 100, true);
  EXPECT_NE(err.find("short write to '"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(dir.path() / "File_0.bin"));
  EXPECT_FALSE(
      std::filesystem::exists(dir.path() / DatasetMetadata::kFileName));
}

}  // namespace
}  // namespace spio
