#pragma once

/// \file hooks.hpp
/// Transport interposition points for the simmpi runtime.
///
/// A `CommHooks` implementation can observe every point-to-point send and
/// decide its fate — deliver normally, drop it, deliver it twice, or delay
/// it past later traffic. The production transport installs no hooks: the
/// only cost on that path is one null-pointer branch per send. The
/// fault-injection layer (`spio::faultsim`) scripts deterministic message
/// faults through it for the chaos test harness; a hook that always
/// delivers can also count the traffic of a job.
///
/// Collectives are not hooked: they move through the collective arena,
/// whose all-or-nothing semantics make per-message faults meaningless.
/// Rank death during a collective is modeled at a higher layer (a phase
/// hook throwing before the collective entry).

#include <cstddef>

namespace simmpi {

/// Fate of one point-to-point message, chosen by the installed hooks.
enum class SendAction {
  kDeliver,    // normal delivery
  kDrop,       // silently discard (models message loss)
  kDuplicate,  // deliver two copies (models retransmission races)
  kDelay,      // hold back; delivered after the sender's next send or at
               // its next collective (models out-of-order arrival)
};

/// Interface consulted by `Comm::send_bytes` when installed via
/// `RunOptions`. Implementations must be thread-safe across ranks; calls
/// from one rank are sequential.
class CommHooks {
 public:
  virtual ~CommHooks() = default;

  /// Decide the fate of one message about to be sent from `src` to `dst`.
  virtual SendAction on_send(int src, int dst, int tag,
                             std::size_t bytes) = 0;
};

}  // namespace simmpi
