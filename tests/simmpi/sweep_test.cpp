#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/reduce_ops.hpp"
#include "simmpi/runtime.hpp"
#include "typed_p2p.hpp"

namespace simmpi {
namespace {

/// Every collective exercised at a sweep of rank counts, including
/// awkward ones (primes, powers of two, 1).
class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, BarrierCompletes) {
  run(GetParam(), [](Comm& comm) {
    for (int i = 0; i < 5; ++i) comm.barrier();
  });
}

TEST_P(RankSweep, AllreduceSumMatchesClosedForm) {
  const int n = GetParam();
  run(n, [&](Comm& comm) {
    const long long sum = comm.allreduce<long long>(comm.rank(), op::sum);
    EXPECT_EQ(sum, static_cast<long long>(n) * (n - 1) / 2);
  });
}

TEST_P(RankSweep, BcastFromLastRank) {
  const int n = GetParam();
  run(n, [&](Comm& comm) {
    const int root = n - 1;
    const double v = comm.bcast(comm.rank() == root ? 3.25 : -1.0, root);
    EXPECT_EQ(v, 3.25);
  });
}

TEST_P(RankSweep, AllgatherOrdered) {
  const int n = GetParam();
  run(n, [&](Comm& comm) {
    const auto all = comm.allgather(comm.rank() * comm.rank());
    ASSERT_EQ(all.size(), static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) EXPECT_EQ(all[r], r * r);
  });
}

TEST_P(RankSweep, RingExchange) {
  const int n = GetParam();
  run(n, [&](Comm& comm) {
    const int right = (comm.rank() + 1) % n;
    const int left = (comm.rank() + n - 1) % n;
    send_as<int>(comm, right, 0, {comm.rank()});
    EXPECT_EQ(recv_as<int>(comm, left, 0), std::vector<int>{left});
  });
}

INSTANTIATE_TEST_SUITE_P(Counts, RankSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 33, 64),
                         [](const auto& info) {
                           return "ranks" + std::to_string(info.param);
                         });

/// Randomized point-to-point traffic with full verification: every rank
/// sends a deterministic pseudo-random set of messages; receivers check
/// payloads against the same generator.
TEST(P2pFuzz, RandomTrafficPatternsVerify) {
  constexpr int kRanks = 12;
  constexpr int kRounds = 30;
  run(kRanks, [&](Comm& comm) {
    // Deterministic plan shared by all ranks: round r, sender s sends to
    // ((s + r*7 + 1) % n) a vector of (s + r) % 9 ints of value s*100+r.
    for (int round = 0; round < kRounds; ++round) {
      const int dst = (comm.rank() + round * 7 + 1) % kRanks;
      std::vector<int> payload(
          static_cast<std::size_t>((comm.rank() + round) % 9),
          comm.rank() * 100 + round);
      send_as<int>(comm, dst, round, payload);
    }
    for (int round = 0; round < kRounds; ++round) {
      // Who sends to me this round? s with (s + round*7 + 1) % n == me.
      const int src =
          ((comm.rank() - round * 7 - 1) % kRanks + kRanks) % kRanks;
      const auto got = recv_as<int>(comm, src, round);
      ASSERT_EQ(got.size(),
                static_cast<std::size_t>((src + round) % 9));
      for (int v : got) EXPECT_EQ(v, src * 100 + round);
    }
  });
}

TEST(P2pFuzz, InterleavedTagsAndSources) {
  constexpr int kRanks = 6;
  run(kRanks, [&](Comm& comm) {
    if (comm.rank() == 0) {
      // Everyone floods rank 0 with tagged messages; rank 0 drains them
      // in reverse order of both tag and source — matching must pick the
      // right message regardless of arrival order.
      for (int tag = 7; tag >= 0; --tag)
        for (int src = kRanks - 1; src >= 1; --src)
          EXPECT_EQ(recv_as<int>(comm, src, tag),
                    std::vector<int>{src * 10 + tag});
    } else {
      for (int tag = 0; tag < 8; ++tag)
        send_as<int>(comm, 0, tag, {comm.rank() * 10 + tag});
    }
  });
}

TEST(Stress, TwoHundredRanksAllreduce) {
  constexpr int kRanks = 200;
  run(kRanks, [&](Comm& comm) {
    const long long sum = comm.allreduce<long long>(1, op::sum);
    EXPECT_EQ(sum, kRanks);
  });
}

}  // namespace
}  // namespace simmpi
