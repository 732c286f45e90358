#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/journal.hpp"
#include "core/writer.hpp"
#include "faultsim/fault_plan.hpp"
#include "simmpi/runtime.hpp"
#include "util/temp_dir.hpp"
#include "workload/generators.hpp"

namespace simmpi {
namespace {

TEST(Failure, ExceptionInOneRankPropagatesToCaller) {
  EXPECT_THROW(run(4,
                   [](Comm& comm) {
                     if (comm.rank() == 2)
                       throw std::runtime_error("rank 2 failed");
                     // Other ranks keep working; they may or may not block.
                   }),
               std::runtime_error);
}

TEST(Failure, BlockedReceiversUnwindInsteadOfDeadlocking) {
  // Rank 0 dies; rank 1 is blocked in a receive that will never be
  // matched. The runtime must abort rank 1 and rethrow rank 0's error.
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 0)
                       throw std::logic_error("writer exploded");
                     comm.recv_message(0, 0);  // would block forever
                     FAIL() << "recv returned after peer death";
                   }),
               std::logic_error);
}

TEST(Failure, BlockedCollectiveUnwinds) {
  EXPECT_THROW(run(4,
                   [](Comm& comm) {
                     if (comm.rank() == 3)
                       throw std::runtime_error("no barrier for me");
                     comm.barrier();  // 3 never arrives
                     FAIL() << "barrier completed without all ranks";
                   }),
               std::runtime_error);
}

TEST(Failure, FirstExceptionWins) {
  try {
    run(4, [](Comm& comm) {
      if (comm.rank() == 0) throw std::runtime_error("original failure");
      comm.barrier();
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "original failure");
  }
}

TEST(Failure, HealthyJobAfterFailedJob) {
  // A failed job must not poison subsequent jobs (no global state).
  EXPECT_THROW(run(2,
                   [](Comm&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  int ok = 0;
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) ok = 1;
    comm.barrier();
  });
  EXPECT_EQ(ok, 1);
}

TEST(Failure, RunRejectsNonPositiveRankCountByContract) {
  // Contract violations abort; we only verify the positive path here and
  // exercise 1-rank jobs as the boundary.
  run(1, [](Comm& comm) { EXPECT_EQ(comm.size(), 1); });
}

// ---- rank death at each pipeline phase of the real writer ----

/// One rank dies at a chosen phase of the two-phase write pipeline (via
/// the fault injector); whatever phase it is, the surviving ranks must
/// unwind instead of deadlocking, the caller must see the RankDeath, and
/// the journal must make the interrupted write detectable on disk.
class PipelinePhaseDeath
    : public ::testing::TestWithParam<spio::faultsim::WritePhase> {};

TEST_P(PipelinePhaseDeath, PropagatesAndLeavesDetectableState) {
  const spio::faultsim::WritePhase phase = GetParam();
  spio::faultsim::FaultPlan plan;
  plan.deaths.push_back({2, phase});
  spio::faultsim::FaultInjector inj(plan, 4);

  spio::TempDir dir("spio-phase-death");
  const spio::PatchDecomposition decomp(spio::Box3::unit(), {2, 2, 1});
  try {
    run(4, RunOptions{&inj}, [&](Comm& comm) {
      spio::WriterConfig cfg;
      cfg.dir = dir.path();
      cfg.factor = {2, 1, 1};
      cfg.faults = &inj;
      const auto local = spio::workload::uniform(
          spio::Schema::uintah(), decomp.patch(comm.rank()), 40,
          spio::stream_seed(11, static_cast<std::uint64_t>(comm.rank())),
          static_cast<std::uint64_t>(comm.rank()) * 40);
      spio::write_dataset(comm, decomp, local, cfg);
    });
    FAIL() << "write survived a scheduled rank death";
  } catch (const spio::faultsim::RankDeath& e) {
    EXPECT_NE(std::string(e.what())
                  .find(spio::faultsim::phase_name(phase)),
              std::string::npos);
  }

  // The journal is opened before any phase begins, so every death leaves
  // an interrupted write that repair can clear.
  EXPECT_TRUE(spio::WriteJournal::present(dir.path()));
  EXPECT_EQ(spio::check_and_repair(dir.path(), /*remove_partial=*/true),
            spio::RepairOutcome::kRemovedPartial);
  EXPECT_FALSE(spio::WriteJournal::present(dir.path()));
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, PipelinePhaseDeath,
    ::testing::Values(spio::faultsim::WritePhase::kSetup,
                      spio::faultsim::WritePhase::kMetaExchange,
                      spio::faultsim::WritePhase::kParticleExchange,
                      spio::faultsim::WritePhase::kDataWrite,
                      spio::faultsim::WritePhase::kCommit),
    [](const ::testing::TestParamInfo<spio::faultsim::WritePhase>& info) {
      return std::string(spio::faultsim::phase_name(info.param));
    });

}  // namespace
}  // namespace simmpi
