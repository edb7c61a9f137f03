#include "serve/service.hpp"

#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace hsd::serve {

InferenceService::InferenceService(const ServiceConfig& config,
                                   core::HotspotDetector detector)
    : config_(config),
      metrics_(config.metric_prefix),
      worker_(config.feature_grid, config.feature_keep, config.cache_capacity,
              config.temperature, config.decision_threshold,
              config.shard_index, std::move(detector)) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("InferenceService: max_batch must be >= 1");
  }
  if (config_.max_queue == 0) {
    throw std::invalid_argument("InferenceService: max_queue must be >= 1");
  }
  if (worker_.extractor().keep() != config_.feature_keep) {
    throw std::invalid_argument("InferenceService: extractor keep mismatch");
  }
  if (!config_.manual_pump) {
    // The collector is a long-lived dedicated thread, not a data-parallel
    // task: parking it in the runtime pool would wedge a serial pool
    // (HSD_THREADS=1 runs submissions inline) and permanently eat a worker
    // otherwise. It joins in shutdown(), which the destructor guarantees.
    // hsd-lint: allow(no-raw-thread)
    collector_ = std::thread([this] { collector_main(); });
  }
}

InferenceService::~InferenceService() { shutdown(); }

std::future<Response> InferenceService::submit(const layout::Clip& clip) {
  return submit_impl(clip, false, std::chrono::microseconds(0));
}

std::future<Response> InferenceService::submit(const layout::Clip& clip,
                                               std::chrono::microseconds budget) {
  return submit_impl(clip, true, budget);
}

std::future<Response> InferenceService::submit_impl(
    const layout::Clip& clip, bool has_deadline,
    std::chrono::microseconds budget) {
  Request req;
  req.clip = clip;
  req.enqueued = Clock::now();
  req.has_deadline = has_deadline;
  if (has_deadline) req.deadline = req.enqueued + budget;
  bool admitted = false;
  return admit(std::move(req), admitted);
}

std::future<Response> InferenceService::submit_routed(Request&& req,
                                                      bool& admitted) {
  return admit(std::move(req), admitted);
}

std::future<Response> InferenceService::admit(Request&& req, bool& admitted) {
  metrics_.submitted.add();
  std::future<Response> future = req.promise.get_future();

  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    lock.unlock();
    admitted = false;
    metrics_.rejected_shutdown.add();
    Response r;
    r.status = Status::kRejectedShutdown;
    r.shard = config_.shard_index;
    finish_request(req, r, metrics_);
    return future;
  }
  if (queue_.size() >= config_.max_queue) {
    lock.unlock();
    admitted = false;
    // Counted as a queue overflow either way; the response status tells the
    // caller whether a standalone service or the fleet router shed it.
    metrics_.rejected_queue_full.add();
    Response r;
    r.status = req.overflow_status;
    r.shard = config_.shard_index;
    finish_request(req, r, metrics_);
    return future;
  }
  queue_.push_back(std::move(req));
  metrics_.queue_depth.set(static_cast<double>(queue_.size()));
  metrics_.accepted.add();
  admitted = true;
  lock.unlock();
  queue_cv_.notify_one();
  return future;
}

Response InferenceService::predict(const layout::Clip& clip) {
  std::future<Response> f = submit(clip);
  if (config_.manual_pump) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      pump();
    }
  }
  return f.get();
}

std::deque<Request> InferenceService::take_batch() {
  std::deque<Request> batch;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = std::min(config_.max_batch, queue_.size());
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  metrics_.queue_depth.set(static_cast<double>(queue_.size()));
  return batch;
}

std::size_t InferenceService::pump() {
  std::deque<Request> batch = take_batch();
  if (!batch.empty()) worker_.execute(batch, metrics_);
  return batch.size();
}

void InferenceService::collector_main() {
  obs::set_current_thread_name("serve-collector");
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and the drain is complete
    }
    // Work-conserving: never hold a request back to wait for company.
    // Whatever queued while the previous batch ran forms the next one.
    pump();
  }
}

void InferenceService::begin_shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
}

void InferenceService::shutdown() {
  begin_shutdown();
  // Concurrent shutdown() calls all block here until the drain completes,
  // so every caller returns only once all admitted requests are answered.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (collector_.joinable()) {
    collector_.join();
  } else if (config_.manual_pump) {
    // Manual mode: drain synchronously so graceful shutdown still answers
    // every admitted request.
    while (pump() > 0) {
    }
  }
}

std::size_t InferenceService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace hsd::serve
