// Concurrent producers vs. the fleet: N raw threads hammer the router while
// four shard collectors batch independently, and every answered request
// must carry the exact bits serial evaluation produces. A second test races
// a fleet-wide drain against mid-stream submitters. Run under TSan in CI,
// so the real assertion is as much "no data races" as the equality checks.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "data/features.hpp"
#include "layout/clip.hpp"
#include "serve/fleet.hpp"
#include "stats/rng.hpp"

namespace hsd::serve {
namespace {

constexpr std::uint64_t kSeed = 13;
constexpr std::size_t kProducers = 4;
constexpr std::size_t kRequestsPerProducer = 64;
constexpr std::size_t kDistinctClips = 12;
constexpr double kTemperature = 1.2;

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

std::vector<layout::Clip> distinct_clips() {
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < kDistinctClips; ++i) {
    clips.push_back(line_clip(static_cast<layout::Coord>(20 + (i % 4) * 10),
                              static_cast<layout::Coord>(i * 8) - 40));
  }
  return clips;
}

core::HotspotDetector make_replica() {
  core::DetectorConfig dcfg;
  dcfg.input_side = 8;
  return core::HotspotDetector(dcfg, stats::Rng(kSeed));
}

FleetConfig concurrent_config() {
  FleetConfig fcfg;
  fcfg.shards = 4;
  fcfg.shard.feature_grid = 32;
  fcfg.shard.feature_keep = 8;
  fcfg.shard.temperature = kTemperature;
  fcfg.shard.max_batch = 8;
  fcfg.shard.max_queue = kProducers * kRequestsPerProducer;
  return fcfg;
}

std::vector<double> reference_probabilities(
    const std::vector<layout::Clip>& clips) {
  core::HotspotDetector det = make_replica();
  const data::FeatureExtractor fx(32, 8);
  std::vector<double> probs;
  for (const layout::Clip& clip : clips) {
    probs.push_back(
        det.probabilities(fx.extract_batch({clip}), kTemperature)[0][1]);
  }
  return probs;
}

TEST(FleetConcurrency, ProducersGetBitIdenticalAnswersFromOwningShards) {
  const std::vector<layout::Clip> clips = distinct_clips();
  const std::vector<double> reference = reference_probabilities(clips);

  FleetRouter fleet(concurrent_config(), make_replica);
  std::vector<std::vector<std::future<Response>>> futures(kProducers);
  std::vector<std::vector<std::size_t>> clip_index(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    futures[p].reserve(kRequestsPerProducer);
    clip_index[p].reserve(kRequestsPerProducer);
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kRequestsPerProducer; ++i) {
        const std::size_t ci = (p * 31 + i) % kDistinctClips;
        clip_index[p].push_back(ci);
        futures[p].push_back(fleet.submit(clips[ci]));
      }
    });
  }
  for (auto& t : producers) t.join();

  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < kRequestsPerProducer; ++i) {
      const Response r = futures[p][i].get();
      ASSERT_EQ(r.status, Status::kOk) << "producer " << p << " request " << i;
      EXPECT_EQ(r.probability, reference[clip_index[p][i]])
          << "producer " << p << " request " << i;
      // Routing under concurrency is still the pure content placement.
      EXPECT_EQ(r.shard, fleet.shard_for(clips[clip_index[p][i]]))
          << "producer " << p << " request " << i;
    }
  }
  fleet.shutdown();
}

TEST(FleetConcurrency, DrainRacingSubmittersNeverLosesARequest) {
  const std::vector<layout::Clip> clips = distinct_clips();
  const std::vector<double> reference = reference_probabilities(clips);

  FleetRouter fleet(concurrent_config(), make_replica);
  std::vector<std::vector<std::future<Response>>> futures(kProducers);
  std::vector<std::vector<std::size_t>> clip_index(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kRequestsPerProducer; ++i) {
        const std::size_t ci = (p + i) % kDistinctClips;
        clip_index[p].push_back(ci);
        futures[p].push_back(fleet.submit(clips[ci]));
      }
    });
  }
  // Drain fleet-wide while producers are mid-stream; also exercise
  // concurrent shutdown() calls from two extra threads.
  std::thread racer1([&] { fleet.shutdown(); });
  std::thread racer2([&] { fleet.shutdown(); });
  racer1.join();
  racer2.join();
  for (auto& t : producers) t.join();

  std::size_t ok = 0, rejected = 0;
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < futures[p].size(); ++i) {
      const Response r = futures[p][i].get();
      if (r.status == Status::kOk) {
        EXPECT_EQ(r.probability, reference[clip_index[p][i]]);
        ++ok;
      } else {
        EXPECT_EQ(r.status, Status::kRejectedShutdown);
        ++rejected;
      }
    }
  }
  EXPECT_EQ(ok + rejected, kProducers * kRequestsPerProducer);
}

}  // namespace
}  // namespace hsd::serve
