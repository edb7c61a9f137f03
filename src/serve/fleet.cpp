#include "serve/fleet.hpp"

#include <utility>

#include "common/hash.hpp"
#include "obs/rollup.hpp"

namespace hsd::serve {

FleetRouter::FleetRouter(
    const FleetConfig& config,
    const std::function<core::HotspotDetector()>& detector_factory)
    : config_(config),
      ring_(config.shards, config.virtual_nodes),
      extractor_(config.shard.feature_grid, config.shard.feature_keep),
      routed_(obs::counter(config.shard.metric_prefix + "/router/requests")),
      shed_(obs::counter(config.shard.metric_prefix + "/router/shed")) {
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    ServiceConfig scfg = config_.shard;
    scfg.shard_index = static_cast<std::uint32_t>(i);
    scfg.metric_prefix =
        config_.shard.metric_prefix + "/shard" + std::to_string(i);
    shards_.push_back(
        std::make_unique<InferenceService>(scfg, detector_factory()));
  }
}

FleetRouter::FleetRouter(const FleetConfig& config,
                         std::vector<std::unique_ptr<Shard>> shards)
    : config_(config),
      ring_(shards.size(), config.virtual_nodes),
      extractor_(config.shard.feature_grid, config.shard.feature_keep),
      shards_(std::move(shards)),
      routed_(obs::counter(config.shard.metric_prefix + "/router/requests")),
      shed_(obs::counter(config.shard.metric_prefix + "/router/shed")) {
  config_.shards = shards_.size();
}

FleetRouter::~FleetRouter() { shutdown(); }

std::future<Response> FleetRouter::submit(const layout::Clip& clip) {
  return submit_impl(clip, false, std::chrono::microseconds(0));
}

std::future<Response> FleetRouter::submit(const layout::Clip& clip,
                                          std::chrono::microseconds budget) {
  return submit_impl(clip, true, budget);
}

std::future<Response> FleetRouter::submit_impl(
    const layout::Clip& clip, bool has_deadline,
    std::chrono::microseconds budget) {
  routed_.add();

  Request req;
  req.clip = clip;
  req.enqueued = Request::Clock::now();
  req.has_deadline = has_deadline;
  if (has_deadline) req.deadline = req.enqueued + budget;
  // Rasterize + hash on the submitter's thread: the router needs the
  // content hash to route, and the bitmap rides along so the shard worker
  // never rasterizes twice. Rasterization is pure, so this is bit-identical
  // to the shard doing it itself.
  req.bitmap = extractor_.rasterizer().rasterize(clip);
  req.content_hash = common::content_hash(req.bitmap);
  req.prehashed = true;
  req.overflow_status = Status::kShedFleetOverloaded;

  const std::size_t target = ring_.shard_for(req.content_hash);
  bool admitted = false;
  std::future<Response> future =
      shards_[target]->submit_routed(std::move(req), admitted);
  if (!admitted) shed_.add();
  return future;
}

Response FleetRouter::predict(const layout::Clip& clip) {
  std::future<Response> f = submit(clip);
  if (config_.shard.manual_pump) {
    while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      pump();
    }
  }
  return f.get();
}

std::size_t FleetRouter::pump() {
  std::size_t answered = 0;
  for (auto& shard : shards_) answered += shard->pump();
  return answered;
}

void FleetRouter::shutdown() {
  // Two phases: stop admission everywhere first (so draining shard 0 cannot
  // overlap with new traffic still being admitted to shard 1), then drain
  // every shard to empty.
  for (auto& shard : shards_) shard->begin_shutdown();
  for (auto& shard : shards_) shard->shutdown();
}

std::size_t FleetRouter::shard_for(const layout::Clip& clip) const {
  return ring_.shard_for(
      common::content_hash(extractor_.rasterizer().rasterize(clip)));
}

obs::MetricsSnapshot FleetRouter::fleet_rollup() const {
  return obs::rollup_shards(obs::metrics_snapshot());
}

}  // namespace hsd::serve
