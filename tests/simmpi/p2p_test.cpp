#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/runtime.hpp"
#include "typed_p2p.hpp"

namespace simmpi {
namespace {

TEST(P2p, SendRecvSingleValue) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      send_as<int>(comm, 1, 0, {42});
    } else {
      EXPECT_EQ(recv_as<int>(comm, 0, 0), std::vector<int>{42});
    }
  });
}

TEST(P2p, SendRecvVector) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> data(100);
      std::iota(data.begin(), data.end(), 0.0);
      send_as<double>(comm, 1, 5, data);
    } else {
      const auto data = recv_as<double>(comm, 0, 5);
      ASSERT_EQ(data.size(), 100u);
      EXPECT_EQ(data[37], 37.0);
    }
  });
}

TEST(P2p, EmptyPayload) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      send_as<int>(comm, 1, 0, {});
    } else {
      EXPECT_TRUE(recv_as<int>(comm, 0, 0).empty());
    }
  });
}

TEST(P2p, SelfSend) {
  run(1, [](Comm& comm) {
    send_as<int>(comm, 0, 3, {99});
    EXPECT_EQ(recv_as<int>(comm, 0, 3), std::vector<int>{99});
  });
}

TEST(P2p, TagsMatchIndependently) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      send_as<int>(comm, 1, /*tag=*/1, {111});
      send_as<int>(comm, 1, /*tag=*/2, {222});
    } else {
      // Receive in the opposite order of sending: tag matching must pick
      // the right message regardless of arrival order.
      EXPECT_EQ(recv_as<int>(comm, 0, 2), std::vector<int>{222});
      EXPECT_EQ(recv_as<int>(comm, 0, 1), std::vector<int>{111});
    }
  });
}

TEST(P2p, NonOvertakingSameSourceAndTag) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) send_as<int>(comm, 1, 0, {i});
    } else {
      for (int i = 0; i < 50; ++i)
        EXPECT_EQ(recv_as<int>(comm, 0, 0), std::vector<int>{i});
    }
  });
}

TEST(P2p, AnySourceReceivesFromAll) {
  constexpr int kRanks = 8;
  run(kRanks, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<bool> seen(kRanks, false);
      for (int i = 1; i < kRanks; ++i) {
        int src = -2;
        const auto v = recv_as<int>(comm, kAnySource, 0, &src);
        EXPECT_EQ(v, std::vector<int>{src * 10});
        EXPECT_FALSE(seen[static_cast<std::size_t>(src)]);
        seen[static_cast<std::size_t>(src)] = true;
      }
    } else {
      send_as<int>(comm, 0, 0, {comm.rank() * 10});
    }
  });
}

TEST(P2p, AnyTagMatchesFirstArrival) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      send_as<int>(comm, 1, 7, {70});
      send_as<int>(comm, 1, 9, {90});
    } else {
      comm.barrier();  // ensure both messages arrived before receiving
      Message m = comm.recv_message(0, kAnyTag);
      EXPECT_EQ(m.tag, 7);  // first arrival matched first
    }
    if (comm.rank() == 0) comm.barrier();
    if (comm.rank() == 1) comm.recv_message(0, kAnyTag);  // drain
  });
}

TEST(P2p, IprobeSeesPendingMessage) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      send_as<double>(comm, 1, 4, {1, 2, 3});
      comm.barrier();
    } else {
      comm.barrier();  // sender has definitely delivered
      int src = -1;
      std::size_t bytes = 0;
      EXPECT_TRUE(comm.iprobe(0, 4, &src, &bytes));
      EXPECT_EQ(src, 0);
      EXPECT_EQ(bytes, 3 * sizeof(double));
      EXPECT_FALSE(comm.iprobe(0, 99));
      comm.recv_message(0, 4);  // drain
    }
  });
}

TEST(P2p, LargePayload) {
  run(2, [](Comm& comm) {
    constexpr std::size_t kCount = 1 << 20;  // 8 MiB of doubles
    if (comm.rank() == 0) {
      std::vector<double> data(kCount, 1.5);
      data.back() = 2.5;
      send_as<double>(comm, 1, 0, data);
    } else {
      const auto data = recv_as<double>(comm, 0, 0);
      ASSERT_EQ(data.size(), kCount);
      EXPECT_EQ(data.front(), 1.5);
      EXPECT_EQ(data.back(), 2.5);
    }
  });
}

TEST(P2p, ManyToOneStress) {
  constexpr int kRanks = 16;
  run(kRanks, [](Comm& comm) {
    constexpr int kMsgs = 20;
    if (comm.rank() == 0) {
      long long total = 0;
      for (int i = 0; i < (kRanks - 1) * kMsgs; ++i)
        total += recv_as<int>(comm, kAnySource, 0).at(0);
      long long expect = 0;
      for (int r = 1; r < kRanks; ++r)
        for (int m = 0; m < kMsgs; ++m) expect += r * 1000 + m;
      EXPECT_EQ(total, expect);
    } else {
      for (int m = 0; m < kMsgs; ++m)
        send_as<int>(comm, 0, 0, {comm.rank() * 1000 + m});
    }
  });
}

}  // namespace
}  // namespace simmpi
