#include "util/thread_pool.hpp"

namespace spio {

ThreadPool::ThreadPool(int threads, bool inline_when_single)
    : concurrency_(threads < 1 ? 1 : threads) {
  if (concurrency_ < 2 && inline_when_single) return;
  workers_.reserve(static_cast<std::size_t>(concurrency_));
  for (int i = 0; i < concurrency_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { drain_and_stop(); }

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> fut = task.get_future();
  if (workers_.empty()) {
    task();  // inline pool: run now, on the caller
    return fut;
  }
  {
    std::lock_guard lk(mu_);
    if (!stop_) {
      queue_.push_back(std::move(task));  // leaves `task` without state
    }
    // else: the drain has begun (or finished) — run on the caller
    // instead of racing the workers' exit; an accepted task is never
    // dropped.
  }
  if (task.valid()) {
    task();
    return fut;
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::drain_and_stop() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();  // from here on, submit runs inline
  // Workers exit only on an empty queue and submits after stop_ run
  // inline, so nothing should be left. Run any stragglers defensively —
  // a task must execute exactly once, never be dropped.
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::lock_guard lk(mu_);
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::stopped() const {
  std::lock_guard lk(mu_);
  return stop_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

}  // namespace spio
