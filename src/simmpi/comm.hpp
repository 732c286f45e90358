#pragma once

/// \file comm.hpp
/// The communicator: tagged point-to-point byte messages and the
/// collectives spio calls. Each rank thread owns a `Comm` *handle*; all
/// handles of one communicator share a `CommState`. The interface is the
/// MPI subset the library uses, nothing more.
///
/// MPI correspondence (for porting spio to real MPI):
///   send_bytes             -> MPI_Bsend (MPI_BYTE)
///   recv_message           -> MPI_Recv (+ MPI_Get_count)
///   iprobe                 -> MPI_Iprobe (+ MPI_Get_count)
///   barrier                -> MPI_Barrier
///   bcast                  -> MPI_Bcast
///   gather / allgather     -> MPI_Gather / MPI_Allgather
///   allgatherv             -> MPI_Allgatherv
///   allreduce              -> MPI_Allreduce

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "simmpi/collective_arena.hpp"
#include "simmpi/hooks.hpp"
#include "simmpi/mailbox.hpp"
#include "simmpi/message.hpp"
#include "util/error.hpp"

namespace simmpi {

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

  /// Transport interposition (fault injection, traffic counting); null in
  /// production. Set once before any rank runs.
  CommHooks* hooks = nullptr;

  /// Per-sender stash of delayed messages. Slot `r` is touched only by
  /// rank r's thread, so no lock is needed.
  std::vector<std::vector<DelayedMessage>> delayed;

  void interrupt_all();
};

}  // namespace detail

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

  // ---- point-to-point ----

  /// Buffered send: the payload is moved into the destination mailbox and
  /// the call returns immediately (simmpi's transport is shared memory, so
  /// every send behaves like MPI_Bsend).
  void send_bytes(int dst, int tag, std::vector<std::byte> payload);

  /// Blocking receive of one message matching (src, tag); wildcards allowed.
  Message recv_message(int src, int tag);

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
