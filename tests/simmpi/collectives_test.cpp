#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "simmpi/reduce_ops.hpp"
#include "simmpi/runtime.hpp"
#include "typed_p2p.hpp"

namespace simmpi {
namespace {

TEST(Collectives, BarrierSynchronizes) {
  constexpr int kRanks = 8;
  std::atomic<int> before{0}, after{0};
  run(kRanks, [&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    // Every rank must have incremented `before` before any rank passes.
    EXPECT_EQ(before.load(), kRanks);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), kRanks);
}

TEST(Collectives, ManyBarriersBackToBack) {
  run(4, [](Comm& comm) {
    for (int i = 0; i < 200; ++i) comm.barrier();
  });
}

TEST(Collectives, BcastFromEveryRoot) {
  constexpr int kRanks = 5;
  run(kRanks, [](Comm& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      const double v =
          comm.bcast(comm.rank() == root ? root * 1.5 : -1.0, root);
      EXPECT_EQ(v, root * 1.5);
    }
  });
}

TEST(Collectives, GatherCollectsInRankOrderAtRootOnly) {
  constexpr int kRanks = 6;
  run(kRanks, [](Comm& comm) {
    const auto at2 = comm.gather(comm.rank() * 7, /*root=*/2);
    if (comm.rank() == 2) {
      ASSERT_EQ(at2.size(), static_cast<std::size_t>(kRanks));
      for (int r = 0; r < kRanks; ++r) EXPECT_EQ(at2[r], r * 7);
    } else {
      EXPECT_TRUE(at2.empty());
    }
  });
}

TEST(Collectives, AllgatherGivesEveryRankTheTable) {
  constexpr int kRanks = 7;
  run(kRanks, [](Comm& comm) {
    const auto all = comm.allgather(100 + comm.rank());
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
    for (int r = 0; r < kRanks; ++r) EXPECT_EQ(all[r], 100 + r);
  });
}

TEST(Collectives, AllgathervVariableLengths) {
  constexpr int kRanks = 5;
  run(kRanks, [](Comm& comm) {
    // Rank r contributes r elements [r, r, ...].
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()), comm.rank());
    const auto all = comm.allgatherv<int>(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
    for (int r = 0; r < kRanks; ++r) {
      ASSERT_EQ(all[r].size(), static_cast<std::size_t>(r));
      for (int v : all[r]) EXPECT_EQ(v, r);
    }
  });
}

TEST(Collectives, AllreduceSum) {
  constexpr int kRanks = 9;
  run(kRanks, [](Comm& comm) {
    const int total = comm.allreduce(comm.rank() + 1, op::sum);
    EXPECT_EQ(total, kRanks * (kRanks + 1) / 2);
  });
}

TEST(Collectives, AllreduceMinMax) {
  run(6, [](Comm& comm) {
    EXPECT_EQ(comm.allreduce(comm.rank(), op::min), 0);
    EXPECT_EQ(comm.allreduce(comm.rank(), op::max), comm.size() - 1);
  });
}

TEST(Collectives, AllreduceLogical) {
  run(4, [](Comm& comm) {
    EXPECT_TRUE(comm.allreduce(comm.rank() == 2, op::logical_or));
    EXPECT_FALSE(comm.allreduce(comm.rank() == 2, op::logical_and));
  });
}

TEST(Collectives, AllreduceCustomLambda) {
  run(4, [](Comm& comm) {
    // Deterministic left fold over rank order: ((0*10+1)*10+2)*10+3 style.
    const long long v = comm.allreduce<long long>(
        comm.rank(), [](long long a, long long b) { return a * 10 + b; });
    EXPECT_EQ(v, 123);  // 0,1,2,3 folded left-to-right
  });
}

TEST(Collectives, EmptyContributionsRoundTrip) {
  // Rank 0 contributes nothing to the variable-length collective; the
  // empty payload must arrive as an empty vector, beside non-empty ones.
  constexpr int kRanks = 3;
  run(kRanks, [](Comm& comm) {
    std::vector<int> mine;
    if (comm.rank() != 0) mine.push_back(comm.rank());
    const auto all = comm.allgatherv<int>(mine);

    ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
    EXPECT_TRUE(all[0].empty());
    for (int r = 1; r < kRanks; ++r) EXPECT_EQ(all[r], std::vector<int>{r});
  });
}

TEST(Collectives, MixedCollectivesAndP2pInterleave) {
  run(4, [](Comm& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      const int total = comm.allreduce(1, op::sum);
      EXPECT_EQ(total, comm.size());
      if (comm.rank() == 0) {
        send_as<int>(comm, 1, iter, {iter});
      } else if (comm.rank() == 1) {
        EXPECT_EQ(recv_as<int>(comm, 0, iter), std::vector<int>{iter});
      }
      comm.barrier();
    }
  });
}

TEST(Collectives, SingleRankDegenerateCases) {
  run(1, [](Comm& comm) {
    comm.barrier();
    EXPECT_EQ(comm.bcast(5, 0), 5);
    EXPECT_EQ(comm.allreduce(3, op::sum), 3);
    const auto all = comm.allgather(9);
    EXPECT_EQ(all, std::vector<int>{9});
  });
}

TEST(Collectives, TrivialStructPayload) {
  struct Extent {
    double lo, hi;
    long long count;
  };
  run(3, [](Comm& comm) {
    Extent mine{comm.rank() * 1.0, comm.rank() + 1.0, comm.rank() * 10};
    const auto all = comm.allgather(mine);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(all[r].lo, r * 1.0);
      EXPECT_EQ(all[r].hi, r + 1.0);
      EXPECT_EQ(all[r].count, r * 10);
    }
  });
}

TEST(Collectives, LargeRankCount) {
  constexpr int kRanks = 128;
  run(kRanks, [](Comm& comm) {
    const long long total =
        comm.allreduce<long long>(comm.rank(), op::sum);
    EXPECT_EQ(total, static_cast<long long>(kRanks) * (kRanks - 1) / 2);
  });
}

}  // namespace
}  // namespace simmpi
