#pragma once

/// \file runtime.hpp
/// Job launcher: runs an SPMD function on N ranks, each on its own thread.

#include <functional>
#include <vector>

#include "simmpi/comm.hpp"

namespace simmpi {

/// Optional knobs for a job launch.
struct RunOptions {
  /// Transport interposition (fault injection). Not owned; must outlive
  /// the `run` call. Null means the zero-overhead production path.
  CommHooks* comm_hooks = nullptr;
};

/// Launches rank threads and propagates failures.
///
/// Usage:
///   simmpi::run(16, [&](simmpi::Comm& comm) { ... SPMD code ... });
///
/// If any rank throws, the job is aborted: the abort flag is raised, ranks
/// blocked in receives or collectives unwind with `Aborted`, all threads
/// are joined, and the first original exception is rethrown to the caller.
void run(int nranks, const std::function<void(Comm&)>& rank_main);

/// As `run`, with launch options (e.g. installed `CommHooks`).
void run(int nranks, const RunOptions& options,
         const std::function<void(Comm&)>& rank_main);

}  // namespace simmpi
