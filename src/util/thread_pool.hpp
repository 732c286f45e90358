#pragma once

/// \file thread_pool.hpp
/// Small bounded worker pool shared by the read engine (and reusable by
/// any other subsystem that needs fan-out over independent tasks).
///
/// Semantics are chosen for determinism and exact serial fallback:
///   - `ThreadPool(1)` spawns no threads at all; `submit` runs the task
///     inline on the calling thread and returns an already-satisfied
///     future. A pool of size 1 therefore reproduces single-threaded
///     execution *exactly* (same call stack, same ordering, same
///     exception propagation point). The query service passes
///     `inline_when_single = false` to get a real single worker thread
///     instead — its admission queue must be able to fill up.
///   - `ThreadPool(n >= 2)` spawns `n` workers draining one FIFO queue.
///     Multiple threads may submit concurrently (simmpi ranks are
///     threads of one process and share the global read engine's pool);
///     tasks never block on other tasks, so the bounded pool cannot
///     deadlock.
///
/// Shutdown is always *drain* semantics: `drain_and_stop()` (also run by
/// the destructor) stops accepting queued work, lets the workers finish
/// everything already queued — including tasks that running tasks enqueue
/// while the drain is in progress — and joins them. A `submit` that
/// arrives after the drain completed runs inline on the caller, so an
/// accepted task is always executed, never dropped.
///
/// Exceptions thrown by a task are captured in its future
/// (`std::packaged_task` semantics) and rethrown to the waiter.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace spio {

class ThreadPool {
 public:
  /// \param threads maximum task concurrency; clamped to >= 1.
  /// \param inline_when_single with the default `true`, a pool of 1 runs
  ///        tasks inline on the submitter (exact serial reproduction);
  ///        `false` spawns one real worker thread even for size 1.
  explicit ThreadPool(int threads, bool inline_when_single = true);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Maximum number of tasks that can run concurrently (1 = inline).
  int concurrency() const { return concurrency_; }

  /// Schedule `fn`; the returned future is satisfied when it completes
  /// (holding its exception if it threw). Inline pools — and any pool
  /// after `drain_and_stop` — run `fn` before returning.
  std::future<void> submit(std::function<void()> fn);

  /// Finish every queued task, join the workers, and switch the pool to
  /// inline execution. Idempotent and safe to call from any thread that
  /// is not itself a pool worker. This is the QueryService shutdown
  /// path: every task accepted before the drain is executed exactly
  /// once.
  void drain_and_stop();

  /// True once `drain_and_stop` has begun (subsequent submits run
  /// inline).
  bool stopped() const;

 private:
  void worker_loop();

  const int concurrency_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace spio
