#include "faultsim/fault_plan.hpp"

#include <gtest/gtest.h>

namespace spio::faultsim {
namespace {

using simmpi::SendAction;

TEST(FaultPlan, RandomIsDeterministicPerSeed) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const FaultPlan a = FaultPlan::random(seed, 8);
    const FaultPlan b = FaultPlan::random(seed, 8);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(FaultPlan, DistinctSeedsDiffer) {
  int distinct = 0;
  const FaultPlan base = FaultPlan::random(0, 8);
  for (std::uint64_t seed = 1; seed < 32; ++seed)
    if (!(FaultPlan::random(seed, 8) == base)) ++distinct;
  EXPECT_GT(distinct, 24);  // collisions are possible but must be rare
}

TEST(FaultPlan, RandomPlansAreRecoverableByConstruction) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan p = FaultPlan::random(seed, 6);
    EXPECT_FALSE(p.messages.empty());
    // At most one rule per tag: stacked rules on one tag would make the
    // second rule's trigger depend on retransmission timing.
    if (p.messages.size() == 2) {
      EXPECT_NE(p.messages[0].tag, p.messages[1].tag);
    }
    EXPECT_LE(p.messages.size(), 2u);
    for (const MessageRule& r : p.messages) {
      // Only the writer's data tags — never ACKs, never wildcards — and
      // a deterministic, retry-recoverable trigger window.
      EXPECT_TRUE(r.tag == kTagMetaExchange || r.tag == kTagParticleExchange);
      EXPECT_EQ(r.after, 0);
      EXPECT_GE(r.count, 1);
      EXPECT_LE(r.count, 2);
      EXPECT_NE(r.action, SendAction::kDeliver);
    }
    for (const FileRule& r : p.files) {
      EXPECT_NE(r.kind, FileFaultKind::kBitRot);  // silent; targeted only
      EXPECT_NE(r.kind, FileFaultKind::kNone);
      EXPECT_EQ(r.after, 0);
      EXPECT_LE(r.count, 2);
    }
    EXPECT_LE(p.deaths.size(), 1u);
  }
}

TEST(FaultInjector, TriggerWindowCountsMatchingSendsPerRank) {
  FaultPlan plan;
  plan.messages.push_back({SendAction::kDrop, -1, -1, /*tag=*/5,
                           /*after=*/2, /*count=*/2});
  FaultInjector inj(plan, 2);

  // Rank 0: sends 1,2 pass, 3,4 dropped, 5+ pass again.
  EXPECT_EQ(inj.on_send(0, 1, 5, 8), SendAction::kDeliver);
  EXPECT_EQ(inj.on_send(0, 1, 5, 8), SendAction::kDeliver);
  EXPECT_EQ(inj.on_send(0, 1, 5, 8), SendAction::kDrop);
  EXPECT_EQ(inj.on_send(0, 1, 5, 8), SendAction::kDrop);
  EXPECT_EQ(inj.on_send(0, 1, 5, 8), SendAction::kDeliver);
  // A different tag never matches.
  EXPECT_EQ(inj.on_send(0, 1, 6, 8), SendAction::kDeliver);
  // Rank 1 has its own window, unaffected by rank 0's sends.
  EXPECT_EQ(inj.on_send(1, 0, 5, 8), SendAction::kDeliver);
  EXPECT_EQ(inj.on_send(1, 0, 5, 8), SendAction::kDeliver);
  EXPECT_EQ(inj.on_send(1, 0, 5, 8), SendAction::kDrop);

  const auto events = inj.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].rank, 0);
  EXPECT_EQ(events[1].rank, 0);
  EXPECT_EQ(events[2].rank, 1);
  EXPECT_NE(events[0].description.find("drop"), std::string::npos);
}

TEST(FaultInjector, FirstMatchingRuleInWindowWins) {
  FaultPlan plan;
  plan.messages.push_back({SendAction::kDrop, -1, -1, 5, /*after=*/0, 1});
  plan.messages.push_back({SendAction::kDelay, -1, -1, 5, /*after=*/0, 9});
  FaultInjector inj(plan, 1);
  EXPECT_EQ(inj.on_send(0, 0, 5, 1), SendAction::kDrop);
  // First rule's window is spent; the second still matches.
  EXPECT_EQ(inj.on_send(0, 0, 5, 1), SendAction::kDelay);
}

TEST(FaultInjector, FileFaultWindowAndPathFilter) {
  FaultPlan plan;
  plan.files.push_back({FileFaultKind::kTornWrite, /*rank=*/-1, "File_",
                        /*after=*/0, /*count=*/2});
  FaultInjector inj(plan, 2);

  EXPECT_EQ(inj.next_file_fault(0, "meta.spio"), FileFaultKind::kNone);
  EXPECT_EQ(inj.next_file_fault(0, "File_0.bin"), FileFaultKind::kTornWrite);
  EXPECT_EQ(inj.next_file_fault(0, "File_0.bin"), FileFaultKind::kTornWrite);
  EXPECT_EQ(inj.next_file_fault(0, "File_0.bin"), FileFaultKind::kNone);
  // Per-rank window: rank 1's writes are faulted independently.
  EXPECT_EQ(inj.next_file_fault(1, "File_1.bin"), FileFaultKind::kTornWrite);
}

TEST(FaultInjector, RankDeathFiresOnlyForMatchingRankAndPhase) {
  FaultPlan plan;
  plan.deaths.push_back({1, WritePhase::kParticleExchange});
  FaultInjector inj(plan, 4);

  EXPECT_NO_THROW(inj.on_phase(1, WritePhase::kMetaExchange));
  EXPECT_NO_THROW(inj.on_phase(0, WritePhase::kParticleExchange));
  EXPECT_THROW(inj.on_phase(1, WritePhase::kParticleExchange), RankDeath);

  const auto events = inj.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].description.find("particle_exchange"),
            std::string::npos);
}

TEST(FaultInjector, EventsMergeSortedByRankThenSeq) {
  FaultPlan plan;
  plan.messages.push_back({SendAction::kDrop, -1, -1, -1, 0, 100});
  FaultInjector inj(plan, 3);
  // Interleave ranks; per-rank seq must still be contiguous and sorted.
  inj.on_send(2, 0, 1, 1);
  inj.on_send(0, 1, 1, 1);
  inj.on_send(2, 1, 1, 1);
  inj.on_send(1, 2, 1, 1);
  inj.on_send(0, 2, 1, 1);

  const auto events = inj.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_TRUE(events[i - 1].rank < events[i].rank ||
                (events[i - 1].rank == events[i].rank &&
                 events[i - 1].seq < events[i].seq));
  }
}

TEST(FaultNames, AreStable) {
  EXPECT_EQ(phase_name(WritePhase::kSetup), "setup");
  EXPECT_EQ(phase_name(WritePhase::kMetaExchange), "meta_exchange");
  EXPECT_EQ(phase_name(WritePhase::kParticleExchange), "particle_exchange");
  EXPECT_EQ(phase_name(WritePhase::kDataWrite), "data_write");
  EXPECT_EQ(phase_name(WritePhase::kCommit), "commit");
  EXPECT_EQ(file_fault_name(FileFaultKind::kTornWrite), "torn_write");
  EXPECT_EQ(file_fault_name(FileFaultKind::kBitRot), "bit_rot");
  EXPECT_EQ(ack_tag(kTagMetaExchange), 111);
  EXPECT_EQ(ack_tag(kTagParticleExchange), 112);
}

}  // namespace
}  // namespace spio::faultsim
