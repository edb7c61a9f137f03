// The fleet determinism contract: answers through the sharded fleet are
// bit-identical to one-at-a-time HotspotDetector inference at every shard
// count x batch cut x thread count, including across a mid-drain shutdown.
// Shard count changes where a request executes and what shares its batch —
// never a single output bit.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "data/features.hpp"
#include "layout/clip.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/fleet.hpp"
#include "stats/rng.hpp"

namespace hsd::serve {
namespace {

constexpr std::uint64_t kSeed = 11;
constexpr double kTemperature = 1.37;  // exercise the calibration path

layout::Clip line_clip(layout::Coord width, layout::Coord offset) {
  layout::Clip c;
  c.window = layout::Rect{0, 0, 640, 640};
  c.core = layout::centered_core(c.window, 0.5);
  const auto y = static_cast<layout::Coord>(320 + offset - width / 2);
  c.shapes.push_back(
      layout::Rect{0, y, 640, static_cast<layout::Coord>(y + width)});
  layout::finalize(c);
  return c;
}

/// 24 requests over 12 distinct clips: repeats exercise per-shard caches.
std::vector<layout::Clip> request_stream() {
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < 24; ++i) {
    clips.push_back(line_clip(static_cast<layout::Coord>(20 + (i % 4) * 10),
                              static_cast<layout::Coord>((i % 3) * 16) - 16));
  }
  return clips;
}

core::DetectorConfig detector_config() {
  core::DetectorConfig dcfg;
  dcfg.input_side = 8;
  return dcfg;
}

/// The pure factory the contract requires: every replica is constructed
/// from the same seed, so all shards carry bit-identical weights.
core::HotspotDetector make_replica() {
  return core::HotspotDetector(detector_config(), stats::Rng(kSeed));
}

FleetConfig fleet_config(std::size_t shards) {
  FleetConfig fcfg;
  fcfg.shards = shards;
  fcfg.shard.feature_grid = 32;
  fcfg.shard.feature_keep = 8;
  fcfg.shard.temperature = kTemperature;
  return fcfg;
}

/// One-at-a-time reference: an identically-seeded detector scores each clip
/// in its own singleton batch.
std::vector<double> reference_probabilities(
    const std::vector<layout::Clip>& clips) {
  core::HotspotDetector det = make_replica();
  const data::FeatureExtractor fx(32, 8);
  std::vector<double> probs;
  probs.reserve(clips.size());
  for (const layout::Clip& clip : clips) {
    const tensor::Tensor x = fx.extract_batch({clip});
    probs.push_back(det.probabilities(x, kTemperature)[0][1]);
  }
  return probs;
}

TEST(FleetEquivalence, EveryShardCountBatchCutAndThreadCount) {
  const std::vector<layout::Clip> clips = request_stream();
  const std::vector<double> reference = reference_probabilities(clips);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{3},
                                        std::size_t{8}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        runtime::set_global_threads(threads);
        FleetConfig fcfg = fleet_config(shards);
        fcfg.shard.max_batch = max_batch;
        fcfg.shard.manual_pump = true;
        FleetRouter fleet(fcfg, make_replica);

        std::vector<std::future<Response>> futures;
        for (const layout::Clip& clip : clips) {
          futures.push_back(fleet.submit(clip));
        }
        while (fleet.pump() > 0) {
        }

        const std::string label = "shards=" + std::to_string(shards) +
                                  " max_batch=" + std::to_string(max_batch) +
                                  " threads=" + std::to_string(threads);
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const Response r = futures[i].get();
          ASSERT_EQ(r.status, Status::kOk) << label << " request " << i;
          // Exact double equality: the contract is bit-identity.
          EXPECT_EQ(r.probability, reference[i]) << label << " request " << i;
        }
      }
    }
  }
  runtime::set_global_threads(1);
}

TEST(FleetEquivalence, MidDrainShutdownCompletesWithIdenticalBits) {
  const std::vector<layout::Clip> clips = request_stream();
  const std::vector<double> reference = reference_probabilities(clips);

  // Threaded collectors: the fleet-wide drain lands while requests are
  // still queued on several shards, and every admitted request still gets
  // the exact per-clip answer.
  runtime::set_global_threads(4);
  FleetConfig fcfg = fleet_config(4);
  fcfg.shard.max_batch = 4;
  fcfg.shard.max_queue = clips.size();
  FleetRouter fleet(fcfg, make_replica);

  std::vector<std::future<Response>> futures;
  for (const layout::Clip& clip : clips) futures.push_back(fleet.submit(clip));
  fleet.shutdown();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "mid-drain request " << i;
    EXPECT_EQ(r.probability, reference[i]) << "mid-drain request " << i;
  }
  runtime::set_global_threads(1);
}

}  // namespace
}  // namespace hsd::serve
