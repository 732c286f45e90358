#pragma once

/// \file comm.hpp
/// The communicator: tagged point-to-point messaging, non-blocking
/// requests, and collectives. Each rank thread owns a `Comm` *handle*; all
/// handles of one communicator share a `CommState`.
///
/// MPI correspondence (for porting spio to real MPI):
///   send / recv            -> MPI_Send / MPI_Recv
///   isend / irecv          -> MPI_Isend / MPI_Irecv
///   wait_all               -> MPI_Waitall
///   iprobe                 -> MPI_Iprobe (+ MPI_Get_count)
///   barrier                -> MPI_Barrier
///   bcast                  -> MPI_Bcast
///   gather / allgather     -> MPI_Gather / MPI_Allgather
///   allgatherv             -> MPI_Allgatherv
///   reduce / allreduce     -> MPI_Reduce / MPI_Allreduce
///   exscan                 -> MPI_Exscan
///   split                  -> MPI_Comm_split

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "simmpi/collective_arena.hpp"
#include "simmpi/hooks.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/message.hpp"
#include "util/error.hpp"

namespace simmpi {

class Comm;

namespace detail {

/// A message held back by a `SendAction::kDelay` verdict, waiting for the
/// sender's next delivery opportunity.
struct DelayedMessage {
  int dst = 0;
  Message msg;
};

/// State shared by all rank handles of one communicator.
struct CommState {
  CommState(int size, std::shared_ptr<std::atomic<bool>> abort_flag);

  int size;
  std::shared_ptr<std::atomic<bool>> abort;
  std::vector<Mailbox> mailboxes;
  CollectiveArena arena;

  /// Transport interposition (fault injection); null in production. Set
  /// once before any rank runs; sub-communicators inherit it on split.
  CommHooks* hooks = nullptr;

  /// Per-sender stash of delayed messages. Slot `r` is touched only by
  /// rank r's thread, so no lock is needed.
  std::vector<std::vector<DelayedMessage>> delayed;

  /// Point-to-point traffic accounting: bytes/messages sent from rank s
  /// to rank d at index s * size + d. Collectives do not appear here
  /// (they move through the arena), so this is exactly the data-plane
  /// traffic — used by tests to verify communication-locality claims.
  std::vector<std::atomic<std::uint64_t>> p2p_bytes;
  std::vector<std::atomic<std::uint64_t>> p2p_msgs;

  // Rendezvous area for split(): the leader of each new group publishes the
  // child state here, keyed by (parent collective round, color).
  std::mutex split_mu;
  std::condition_variable split_cv;
  struct SplitEntry {
    std::shared_ptr<CommState> child;
    int fetches_left = 0;
  };
  std::map<std::pair<std::uint64_t, int>, SplitEntry> split_children;

  void interrupt_all();
};

}  // namespace detail

/// A non-blocking operation handle. `wait()` completes the operation; for
/// receives this blocks until the matching message arrives and fills the
/// caller's buffer (which must stay alive until then, as in MPI).
class Request {
 public:
  Request() = default;

  /// True once wait() has run (or the request was born complete).
  bool done() const { return !pending_; }

  /// Complete the operation. Idempotent.
  void wait() {
    if (pending_) {
      auto fn = std::move(pending_);
      pending_ = nullptr;
      fn();
    }
  }

  /// Complete a batch of requests (MPI_Waitall).
  static void wait_all(std::span<Request> reqs) {
    for (auto& r : reqs) r.wait();
  }

 private:
  friend class Comm;
  explicit Request(std::function<void()> fn) : pending_(std::move(fn)) {}

  std::function<void()> pending_;
};

/// Per-rank communicator handle. Cheap to copy within the owning rank
/// thread; do not share one handle across threads (each rank has its own).
class Comm {
 public:
  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : st_(std::move(state)), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return st_->size; }

  /// True once the job's abort flag is raised (another rank failed).
  /// Polling loops outside the runtime's blocking calls (e.g. retry
  /// protocols) must check this and throw `Aborted` to preserve the
  /// no-deadlock guarantee on rank death.
  bool aborting() const {
    return st_->abort->load(std::memory_order_relaxed);
  }

  // ---- point-to-point, bytes ----

  /// Buffered send: the payload is moved into the destination mailbox and
  /// the call returns immediately (simmpi's transport is shared memory, so
  /// every send behaves like MPI_Bsend).
  void send_bytes(int dst, int tag, std::vector<std::byte> payload);

  /// Blocking receive of one message matching (src, tag); wildcards allowed.
  Message recv_message(int src, int tag);

  // ---- point-to-point, typed ----

  /// Send a contiguous range of trivially-copyable elements.
  template <typename T>
  void send(int dst, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(data.data());
    send_bytes(dst, tag, std::vector<std::byte>(p, p + data.size_bytes()));
  }

  /// Send a single trivially-copyable value.
  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    send<T>(dst, tag, std::span<const T>(&v, 1));
  }

  /// Receive a vector of T; the element count is derived from the payload
  /// size (which must be a multiple of sizeof(T)).
  template <typename T>
  std::vector<T> recv(int src, int tag, int* actual_src = nullptr) {
    Message m = recv_message(src, tag);
    if (actual_src) *actual_src = m.src;
    return bytes_to_vector<T>(m.payload);
  }

  /// Receive exactly one value of T.
  template <typename T>
  T recv_value(int src, int tag, int* actual_src = nullptr) {
    auto v = recv<T>(src, tag, actual_src);
    SPIO_CHECK(v.size() == 1, spio::FormatError,
               "recv_value: expected 1 element, got " << v.size());
    return v.front();
  }

  // ---- non-blocking ----

  /// Non-blocking send. Completes immediately (buffered transport); the
  /// returned request exists so call sites mirror MPI structure.
  template <typename T>
  Request isend(int dst, int tag, std::span<const T> data) {
    send<T>(dst, tag, data);
    return Request();
  }

  /// Non-blocking receive into `out`; `out` must outlive wait().
  template <typename T>
  Request irecv(std::vector<T>& out, int src, int tag) {
    auto* state = st_.get();
    const int r = rank_;
    return Request([state, r, src, tag, &out] {
      Message m = state->mailboxes[static_cast<std::size_t>(r)].receive(
          src, tag, *state->abort);
      out = bytes_to_vector<T>(m.payload);
    });
  }

  /// Non-blocking probe for a matching message.
  bool iprobe(int src, int tag, int* out_src = nullptr,
              std::size_t* out_bytes = nullptr);

  // ---- collectives (must be called by all ranks in the same order) ----

  void barrier();

  /// Broadcast `value` from `root`; every rank returns root's value.
  template <typename T>
  T bcast(const T& value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    std::vector<std::byte> contrib;
    if (rank_ == root) contrib = to_bytes(value);
    T result{};
    collective(std::move(contrib), [&](const auto& all) {
      result = from_bytes<T>(all[static_cast<std::size_t>(root)]);
    });
    return result;
  }

  /// Gather one value per rank to `root`. Returns the rank-indexed vector
  /// at root and an empty vector elsewhere.
  template <typename T>
  std::vector<T> gather(const T& value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    std::vector<T> result;
    collective(to_bytes(value), [&](const auto& all) {
      if (rank_ != root) return;
      result.reserve(all.size());
      for (const auto& c : all) result.push_back(from_bytes<T>(c));
    });
    return result;
  }

  /// Gather one value per rank to every rank.
  template <typename T>
  std::vector<T> allgather(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> result;
    collective(to_bytes(value), [&](const auto& all) {
      result.reserve(all.size());
      for (const auto& c : all) result.push_back(from_bytes<T>(c));
    });
    return result;
  }

  /// Gather a variable-length span per rank to every rank; result is
  /// indexed by source rank.
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(data.data());
    std::vector<std::vector<T>> result;
    collective(std::vector<std::byte>(p, p + data.size_bytes()),
               [&](const auto& all) {
                 result.reserve(all.size());
                 for (const auto& c : all)
                   result.push_back(bytes_to_vector<T>(c));
               });
    return result;
  }

  /// Gather a variable-length span per rank to `root`; the rank-indexed
  /// table at root, empty vectors elsewhere.
  template <typename T>
  std::vector<std::vector<T>> gatherv(std::span<const T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    const auto* p = reinterpret_cast<const std::byte*>(data.data());
    std::vector<std::vector<T>> result;
    collective(std::vector<std::byte>(p, p + data.size_bytes()),
               [&](const auto& all) {
                 if (rank_ != root) return;
                 result.reserve(all.size());
                 for (const auto& c : all)
                   result.push_back(bytes_to_vector<T>(c));
               });
    return result;
  }

  /// Inclusive prefix reduction: rank r receives op over ranks [0, r].
  template <typename T, typename BinOp>
  T scan(const T& value, BinOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    T result{};
    collective(to_bytes(value), [&](const auto& all) {
      result = from_bytes<T>(all[0]);
      for (int i = 1; i <= rank_; ++i)
        result = op(result, from_bytes<T>(all[static_cast<std::size_t>(i)]));
    });
    return result;
  }

  /// Reduce with a binary operation, deterministic rank order 0..n-1.
  /// Returns the reduction on every rank.
  template <typename T, typename BinOp>
  T allreduce(const T& value, BinOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    T result{};
    collective(to_bytes(value), [&](const auto& all) {
      result = from_bytes<T>(all[0]);
      for (std::size_t i = 1; i < all.size(); ++i)
        result = op(result, from_bytes<T>(all[i]));
    });
    return result;
  }

  /// Reduce to root only; other ranks receive a value-initialized T.
  template <typename T, typename BinOp>
  T reduce(const T& value, BinOp op, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(root);
    T result{};
    collective(to_bytes(value), [&](const auto& all) {
      if (rank_ != root) return;
      result = from_bytes<T>(all[0]);
      for (std::size_t i = 1; i < all.size(); ++i)
        result = op(result, from_bytes<T>(all[i]));
    });
    return result;
  }

  /// Exclusive prefix reduction: rank r receives op over ranks [0, r),
  /// and `identity` on rank 0.
  template <typename T, typename BinOp>
  T exscan(const T& value, BinOp op, const T& identity) {
    static_assert(std::is_trivially_copyable_v<T>);
    T result = identity;
    collective(to_bytes(value), [&](const auto& all) {
      for (int i = 0; i < rank_; ++i)
        result = op(result, from_bytes<T>(all[static_cast<std::size_t>(i)]));
    });
    return result;
  }

  /// Split into disjoint sub-communicators by `color`; ranks within a new
  /// communicator are ordered by (key, parent rank). Collective.
  Comm split(int color, int key);

  // ---- traffic accounting (testing/diagnostics) ----

  /// Bytes this communicator has moved point-to-point from `src` to
  /// `dst` so far. Not a collective; reads a racy-but-monotonic counter
  /// (exact once the senders have quiesced, e.g. after a barrier).
  std::uint64_t bytes_sent(int src, int dst) const;

  /// Ranks `src` has sent at least one point-to-point byte or message to.
  std::vector<int> destinations_of(int src) const;

 private:
  template <typename T>
  static std::vector<std::byte> to_bytes(const T& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    return std::vector<std::byte>(p, p + sizeof(T));
  }

  template <typename T>
  static T from_bytes(const std::vector<std::byte>& b) {
    SPIO_CHECK(b.size() == sizeof(T), spio::FormatError,
               "collective payload size mismatch: " << b.size() << " vs "
                                                    << sizeof(T));
    T v;
    std::memcpy(&v, b.data(), sizeof(T));
    return v;
  }

  template <typename T>
  static std::vector<T> bytes_to_vector(const std::vector<std::byte>& b) {
    SPIO_CHECK(b.size() % sizeof(T) == 0, spio::FormatError,
               "payload size " << b.size() << " not a multiple of element size "
                               << sizeof(T));
    std::vector<T> out(b.size() / sizeof(T));
    // An empty contribution has null data(); memcpy's pointers must not
    // be null even for a zero size.
    if (!b.empty()) std::memcpy(out.data(), b.data(), b.size());
    return out;
  }

  void check_rank(int r) const {
    SPIO_EXPECTS(r >= 0 && r < size());
  }

  /// Run one arena round with this rank's contribution.
  void collective(std::vector<std::byte> contribution,
                  const CollectiveArena::Reader& reader);

  /// Hand a message to the destination mailbox (post-hook delivery).
  void deliver(int dst, Message&& m);

  /// Deliver every message this rank has stashed under a delay verdict.
  /// Called after each later delivery and at collective entry, so delayed
  /// messages arrive out of order but are never lost.
  void flush_delayed();

  std::shared_ptr<detail::CommState> st_;
  int rank_ = 0;
  std::uint64_t round_ = 0;  // per-rank collective round counter
};

}  // namespace simmpi
