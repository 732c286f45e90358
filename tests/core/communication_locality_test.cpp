#include <gtest/gtest.h>

#include "core/writer.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace spio {
namespace {

/// Functional verification of the paper's §3.1 claim: "communication
/// during the data aggregation phase is localized to each aggregation
/// partition, confined to a group of Px × Py × Pz processes" — checked
/// on the real message traffic of a write (a counting `CommHooks` sees
/// every point-to-point message; collectives move through shared memory
/// and do not blur the picture).

/// Counts the point-to-point traffic of one job by (source, destination).
/// Each rank thread writes only its own source row, and the job's join
/// orders those writes before any read after `simmpi::run` returns.
class TrafficCounter : public simmpi::CommHooks {
 public:
  explicit TrafficCounter(int ranks)
      : bytes_(static_cast<std::size_t>(ranks),
               std::vector<std::uint64_t>(static_cast<std::size_t>(ranks))),
        msgs_(bytes_) {}

  simmpi::SendAction on_send(int src, int dst, int /*tag*/,
                             std::size_t bytes) override {
    bytes_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)] +=
        bytes;
    msgs_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)] += 1;
    return simmpi::SendAction::kDeliver;
  }

  /// Bytes `src` sent to `dst`.
  std::uint64_t bytes(int src, int dst) const {
    return bytes_[static_cast<std::size_t>(src)][static_cast<std::size_t>(dst)];
  }

  /// Ranks `src` sent at least one message to.
  std::vector<int> peers_of(int src) const {
    std::vector<int> out;
    const auto& row = msgs_[static_cast<std::size_t>(src)];
    for (std::size_t d = 0; d < row.size(); ++d)
      if (row[d] > 0) out.push_back(static_cast<int>(d));
    return out;
  }

 private:
  std::vector<std::vector<std::uint64_t>> bytes_;
  std::vector<std::vector<std::uint64_t>> msgs_;
};

TEST(CommunicationLocality, SendersTalkOnlyToTheirAggregator) {
  constexpr int kRanks = 32;
  const PatchDecomposition decomp(Box3::unit(), {4, 4, 2});
  const PartitionFactor factor{2, 2, 2};
  const auto plan = AggregationPlan::non_adaptive(
      decomp, factor, AggregatorPlacement::kUniform);

  TempDir dir("spio-locality");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = factor;
  TrafficCounter traffic(kRanks);
  simmpi::run(kRanks, simmpi::RunOptions{&traffic}, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), 100,
        stream_seed(3, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * 100);
    write_dataset(comm, decomp, local, cfg);
  });
  for (int src = 0; src < kRanks; ++src) {
    ASSERT_EQ(plan.targets_of(src).size(), 1u);
    const int agg = plan.aggregator_of(plan.targets_of(src)[0]);
    for (const int dst : traffic.peers_of(src)) {
      // Every rank sends only to its partition's aggregator.
      EXPECT_EQ(dst, agg) << "rank " << src << " talked to " << dst;
    }
  }
}

TEST(CommunicationLocality, FilePerProcessMovesNoRemoteBytes) {
  // §3.1: (1,1,1) is file-per-process — no particle leaves its rank.
  constexpr int kRanks = 8;
  const PatchDecomposition decomp(Box3::unit(), {2, 2, 2});
  TempDir dir("spio-locality");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = {1, 1, 1};
  TrafficCounter traffic(kRanks);
  simmpi::run(kRanks, simmpi::RunOptions{&traffic}, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), 200,
        stream_seed(5, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * 200);
    write_dataset(comm, decomp, local, cfg);
  });
  for (int src = 0; src < kRanks; ++src)
    for (int dst = 0; dst < kRanks; ++dst) {
      if (src == dst) continue;
      EXPECT_EQ(traffic.bytes(src, dst), 0u) << src << " -> " << dst;
    }
}

TEST(CommunicationLocality, AggregationVolumeMatchesGroupData) {
  // With group size G, an aggregator receives exactly the other G-1
  // ranks' particle payloads (plus 8-byte count messages).
  constexpr int kRanks = 16;
  constexpr std::uint64_t kPerRank = 150;
  const PatchDecomposition decomp(Box3::unit(), {4, 2, 2});
  const PartitionFactor factor{2, 2, 2};  // G = 8, 2 partitions
  const auto plan = AggregationPlan::non_adaptive(
      decomp, factor, AggregatorPlacement::kUniform);

  TempDir dir("spio-locality");
  WriterConfig cfg;
  cfg.dir = dir.path();
  cfg.factor = factor;
  TrafficCounter traffic(kRanks);
  simmpi::run(kRanks, simmpi::RunOptions{&traffic}, [&](simmpi::Comm& comm) {
    const auto local = workload::uniform(
        Schema::uintah(), decomp.patch(comm.rank()), kPerRank,
        stream_seed(5, static_cast<std::uint64_t>(comm.rank())),
        static_cast<std::uint64_t>(comm.rank()) * kPerRank);
    write_dataset(comm, decomp, local, cfg);
  });
  const std::uint64_t payload = kPerRank * Schema::uintah().record_size();
  for (int p = 0; p < plan.partition_count(); ++p) {
    const int agg = plan.aggregator_of(p);
    std::uint64_t received = 0;
    std::uint64_t remote_senders = 0;
    for (const int s : plan.senders_of(p)) {
      if (s == agg) continue;  // the aggregator's own data stays local
      ++remote_senders;
      received += traffic.bytes(s, agg);
    }
    // Each remote sender ships its particles + one 8-byte count.
    // Note: an aggregator may live *outside* its partition (§3.2), in
    // which case every one of the G senders is remote.
    EXPECT_EQ(received, remote_senders * (payload + 8)) << "partition " << p;
  }
}

}  // namespace
}  // namespace spio
