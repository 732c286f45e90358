#include "core/query_service.hpp"

#include <cstdlib>
#include <thread>
#include <utility>

#include "core/read_engine.hpp"
#include "obs/access_profile.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/postmortem.hpp"
#include "obs/query_context.hpp"
#include "obs/stats_export.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace spio {

namespace {

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return fallback;
}

int default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int clamped = hw > 16 ? 16 : static_cast<int>(hw);
  return clamped < 2 ? 2 : clamped;
}

void publish_queue_depth(std::size_t depth) {
  if (!obs::stats_enabled()) return;
  auto& reg = obs::MetricsRegistry::global();
  reg.gauge("service.queue_depth").set(static_cast<double>(depth));
  // The point gauge only captures submit/complete edges; the high-water
  // mark survives between exporter ticks (which reset it) so spikes
  // shorter than one sampling window stay visible.
  reg.gauge("service.queue_depth_max").set_max(static_cast<double>(depth));
}

}  // namespace

QueryService& QueryService::instance() {
  static QueryService service;
  return service;
}

QueryService::QueryService(const ServiceConfig& cfg)
    : workers_(cfg.workers >= 1
                   ? cfg.workers
                   : env_int("SPIO_SERVE_THREADS", default_workers())),
      depth_(cfg.queue_depth >= 1 ? cfg.queue_depth
                                  : env_int("SPIO_SERVE_QUEUE", 256)),
      postmortem_dir_(cfg.postmortem_dir),
      pool_(std::make_unique<ThreadPool>(workers_,
                                         /*inline_when_single=*/false)) {}

QueryService::~QueryService() { shutdown(); }

std::future<QueryService::Result> QueryService::submit(QueryFn fn,
                                                       Options opt) {
  std::future<Result> fut;
  {
    std::lock_guard lk(mu_);
    if (stopping_) {
      ++tallies_.rejected;
      obs::publish_counter("service.rejected", 1);
      throw RejectedError("query service is shut down");
    }
    if (!opt.coalesce_key.empty()) {
      const auto it = by_key_.find(opt.coalesce_key);
      if (it != by_key_.end() && !it->second->done) {
        // An identical query is queued or executing: share it. The
        // join is free — it consumes no queue slot and no execution.
        it->second->waiters.emplace_back();
        fut = it->second->waiters.back().get_future();
        ++tallies_.accepted;
        ++tallies_.coalesced;
        obs::publish_counter("service.coalesced", 1);
        return fut;
      }
    }
    if (queue_.size() >= static_cast<std::size_t>(depth_)) {
      ++tallies_.rejected;
      obs::publish_counter("service.rejected", 1);
      throw RejectedError("admission queue full (" + std::to_string(depth_) +
                          " queued)");
    }
    auto job = std::make_shared<Job>();
    job->id = obs::next_query_id();
    job->admitted_at = Clock::now();
    job->fn = std::move(fn);
    job->opt = std::move(opt);
    job->waiters.emplace_back();
    fut = job->waiters.back().get_future();
    if (!job->opt.coalesce_key.empty()) by_key_[job->opt.coalesce_key] = job;
    queue_.push_back(std::move(job));
    ++tallies_.accepted;
    publish_queue_depth(queue_.size());
  }
  // One pool task per admitted job; the pool's drain_and_stop is what
  // makes shutdown() finish everything accepted.
  pool_->submit([this] { drain_one(); });
  return fut;
}

QueryService::Result QueryService::run(QueryFn fn, Options opt) {
  return submit(std::move(fn), std::move(opt)).get();
}

void QueryService::drain_one() {
  std::shared_ptr<Job> job;
  {
    std::lock_guard lk(mu_);
    if (queue_.empty()) return;  // defensive; one task per job
    job = std::move(queue_.front());
    queue_.pop_front();
    ++inflight_;
    publish_queue_depth(queue_.size());
  }

  Result result;
  std::exception_ptr error;
  const auto started_at = Clock::now();
  std::uint64_t wait_us = 0;
  std::uint64_t latency_us = 0;
  {
    // The query ID scopes the whole execution: every span, log line and
    // flight record below — including those on engine pool workers,
    // which re-install the ID next to the inherited deadline — carries
    // this job's ID.
    obs::ScopedQueryId qid_scope(job->id);
    {
      obs::ScopedSpan span("serve.query", "service");
      read_detail::ScopedDeadline dl(job->opt.deadline);
      try {
        // A deadline that expired while the query was queued aborts it
        // before it runs at all.
        read_detail::check_deadline();
        result = std::make_shared<const ParticleBuffer>(job->fn());
      } catch (...) {
        error = std::current_exception();
      }
    }

    // Server-side latency telemetry is always-on (a clock read and a
    // few relaxed adds per query, same budget class as the flight
    // recorder): the stats exporter (`SPIO_STATS`) reads these without
    // tracing enabled. Latency is admission → completion, the
    // figure a client would see from inside the server. The one clock
    // read feeds the histograms, the SLO check, the log line and the
    // access profile alike.
    const auto us = [](Clock::duration d) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(d).count());
    };
    wait_us = us(started_at - job->admitted_at);
    latency_us = us(Clock::now() - job->admitted_at);
    auto& reg = obs::MetricsRegistry::global();
    static auto& latency_hist = reg.windowed("service.latency_us");
    static auto& wait_hist = reg.windowed("service.queue_wait_us");
    latency_hist.observe(latency_us);
    wait_hist.observe(wait_us);
    const std::uint64_t slo = obs::slo_budget_us();
    if (slo != 0 && latency_us > slo) {
      slo_violations_.fetch_add(1, std::memory_order_relaxed);
      obs::publish_counter("service.slo_violations", 1);
    }
    obs::log::Event(obs::log::Level::kDebug, "serve.query.done")
        .kv("wait_us", wait_us)
        .kv("total_us", latency_us)
        .kv("ok", !error);
  }

  std::vector<std::promise<Result>> waiters;
  {
    std::lock_guard lk(mu_);
    --inflight_;
    job->done = true;  // no waiter may attach past this point
    waiters = std::move(job->waiters);
    if (!job->opt.coalesce_key.empty()) {
      const auto it = by_key_.find(job->opt.coalesce_key);
      if (it != by_key_.end() && it->second == job) by_key_.erase(it);
    }
    if (!error) tallies_.completed += waiters.size();
  }
  // Annotate the access profile's query record (detailed mode) with the
  // service-side view: queue wait, admission→completion latency, and
  // how many coalesced clients this one execution served.
  obs::AccessProfiler::instance().complete_query(job->id, wait_us, latency_us,
                                                 waiters.size());

  if (error) {
    std::string what = "unknown query failure";
    bool timeout = false;
    try {
      std::rethrow_exception(error);
    } catch (const TimeoutError& e) {
      timeout = true;
      what = e.what();
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    {
      std::lock_guard lk(mu_);
      if (timeout) {
        tallies_.deadline_expired += 1;
      } else {
        tallies_.failed += 1;
      }
    }
    obs::publish_counter(
        timeout ? "service.deadline_expired" : "service.failed", 1);
    if (!timeout) note_failure(what);
  } else {
    obs::publish_counter("service.completed", waiters.size());
  }

  for (std::promise<Result>& w : waiters) {
    if (error) {
      w.set_exception(error);
    } else {
      w.set_value(result);
    }
  }
}

void QueryService::note_failure(const std::string& what) {
  {
    std::lock_guard lk(mu_);
    if (postmortem_dir_.empty() || postmortem_saved_) return;
    postmortem_saved_ = true;
  }
  obs::PostmortemInfo info;
  info.reason = what;
  info.phase = "serve";
  obs::save_postmortem(postmortem_dir_, info);  // never throws
}

void QueryService::shutdown() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  // Every accepted job has a matching pool task; draining the pool
  // executes them all and resolves every outstanding future.
  pool_->drain_and_stop();
}

ServiceStats QueryService::stats() const {
  std::lock_guard lk(mu_);
  ServiceStats s = tallies_;
  s.queue_depth = queue_.size();
  s.inflight = inflight_;
  s.slo_violations = slo_violations_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace spio
