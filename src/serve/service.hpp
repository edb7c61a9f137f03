#pragma once
// Online hotspot inference shard with dynamic micro-batching — the middle
// layer of the serving stack (fleet router -> shard service -> batch
// worker; see serve/fleet.hpp for the router).
//
// The offline flow classifies a benchmark in one giant batch; a deployed
// detector instead sees a stream of single-clip requests (EPIC-style "score
// this clip now" traffic from OPC and routing tools). Serving them one at a
// time wastes the batch-level GEMM throughput the runtime pool was built
// for, so the service queues requests and a collector drains the queue into
// micro-batches. The collector is work-conserving: as soon as it is free it
// runs whatever is queued, up to `max_batch` requests, and never waits for
// company. An idle shard answers a lone request at once; under load the
// requests that arrive while one batch runs form the next, so batches fill
// exactly as far as the load demands.
//
// Per request: rasterize -> content-hash the bitmap -> DCT features (LRU
// cache keyed by the hash; repeated pattern families skip the dominant DCT
// cost) -> one batched CNN forward on the runtime pool -> temperature-
// calibrated probability -> hotspot verdict. The feature/cache/forward
// pipeline lives in serve/worker.hpp; this class owns admission, queueing,
// batch cutting, and drain.
//
// Admission control is explicit: a bounded queue rejects on overflow
// (kRejectedQueueFull standalone; the fleet router substitutes
// kShedFleetOverloaded), submissions after shutdown() are refused
// (kRejectedShutdown), and a request whose deadline has passed by the time
// its batch forms is answered kDeadlineExceeded without paying for
// inference. shutdown() is graceful: everything admitted before it still
// completes. All outcomes are counted under <metric_prefix>/* metrics.
//
// Determinism contract: predictions are a pure function of the clip and
// the model. Batch composition, batch cuts, thread count, cache hits, and
// arrival order never change a single bit of any probability — pinned by
// serve_equivalence_test against per-clip HotspotDetector::predict, and by
// serve_fleet_equivalence_test at every shard count.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>

#include "core/detector.hpp"
#include "layout/clip.hpp"
#include "serve/request.hpp"
#include "serve/serve_metrics.hpp"
#include "serve/shard.hpp"
#include "serve/worker.hpp"

namespace hsd::serve {

struct ServiceConfig {
  /// Raster grid and retained DCT block of the feature pipeline; must match
  /// what the model was trained on (keep == detector input_side).
  std::size_t feature_grid = 64;
  std::size_t feature_keep = 16;
  /// Temperature for probability calibration (Eq. 5; 1 = uncalibrated).
  double temperature = 1.0;
  /// Hotspot decision boundary (paper fixes h = 0.4).
  double decision_threshold = 0.4;
  /// Largest micro-batch a collector pass executes.
  std::size_t max_batch = 16;
  /// Bounded-queue depth; submissions beyond it are rejected.
  std::size_t max_queue = 1024;
  /// LRU feature-cache entries (0 disables caching).
  std::size_t cache_capacity = 4096;
  /// Metric namespace: this service's counters/histograms register as
  /// "<metric_prefix>/<name>". The standalone service keeps the historical
  /// "serve" prefix; the fleet router assigns "serve/shard<i>" per shard so
  /// obs::rollup_shards can aggregate fleet totals.
  std::string metric_prefix = "serve";
  /// Stamped into Response::shard (0 for a standalone service).
  std::uint32_t shard_index = 0;
  /// Tests: do not start a collector thread; batches run only when pump()
  /// is called, so admission and batching become single-stepped and exact.
  bool manual_pump = false;
};

/// In-process prediction shard around one HotspotDetector replica.
///
/// Thread-safe for any number of concurrent submitters; all model and cache
/// state is touched only by the single batch-execution context (collector
/// thread, or the pump() caller in manual mode).
class InferenceService : public Shard {
 public:
  /// Takes ownership of the (trained) detector. The detector config's
  /// input_side must equal `config.feature_keep`.
  InferenceService(const ServiceConfig& config, core::HotspotDetector detector);
  ~InferenceService() override;  // shutdown() + join

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Enqueues one clip with no deadline. The future always resolves —
  /// rejected requests resolve immediately with their rejection status.
  std::future<Response> submit(const layout::Clip& clip);

  /// Enqueues one clip that must start executing within `budget` of
  /// submission. A non-positive budget is already expired and will be
  /// answered kDeadlineExceeded by the next batch.
  std::future<Response> submit(const layout::Clip& clip,
                               std::chrono::microseconds budget);

  /// Router entry point: enqueues a fully-formed request (prehashed bitmap,
  /// deadline, and overflow status already set by the caller). `admitted`
  /// reports whether the request entered the queue or was rejected
  /// immediately (shed / shutdown).
  std::future<Response> submit_routed(Request&& req, bool& admitted) override;

  /// Synchronous convenience: submit and wait (pumps inline in manual mode).
  Response predict(const layout::Clip& clip);

  /// Manual mode: drains one micro-batch on the calling thread. Returns the
  /// number of requests answered (including deadline rejections); 0 when
  /// the queue is empty. Also usable after shutdown() to finish a drain.
  std::size_t pump() override;

  /// Phase one of a drain: stops admitting (new submissions resolve
  /// kRejectedShutdown) and wakes the collector, without waiting for the
  /// queue to empty. The fleet router calls this on every shard before
  /// draining any of them. Idempotent.
  void begin_shutdown() override;

  /// Stops admitting, completes every already-admitted request, and joins
  /// the collector. Idempotent; called by the destructor.
  void shutdown() override;

  /// Requests admitted but not yet claimed by a batch.
  std::size_t queue_depth() const override;

  const ServiceConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  std::future<Response> submit_impl(const layout::Clip& clip,
                                    bool has_deadline,
                                    std::chrono::microseconds budget);
  /// Shared admission path: bounded-queue check + enqueue under the mutex.
  std::future<Response> admit(Request&& req, bool& admitted);
  void collector_main();
  /// Pops up to max_batch requests (FIFO). Returns an empty batch only when
  /// the queue is empty.
  std::deque<Request> take_batch();

  ServiceConfig config_;
  ShardMetrics metrics_;
  BatchWorker worker_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;
  std::mutex shutdown_mutex_;  ///< serializes the join/drain in shutdown()
  // Not started in manual_pump mode. hsd-lint: allow(no-raw-thread)
  std::thread collector_;
};

}  // namespace hsd::serve
