// Concurrent producers vs. the collector thread: N raw threads hammer
// submit() and every response must carry the exact bits serial evaluation
// produces. Run under TSan in CI, so the real assertion is as much "no
// data races" as the equality checks below.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "data/features.hpp"
#include "layout/clip.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/service.hpp"
#include "stats/rng.hpp"

namespace hsd::serve {
namespace {

constexpr std::uint64_t kSeed = 13;
constexpr std::size_t kProducers = 4;
constexpr std::size_t kRequestsPerProducer = 64;
constexpr std::size_t kDistinctClips = 8;

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
                              static_cast<layout::Coord>(i * 12) - 40));
  }
  return clips;
}

ServiceConfig concurrent_config() {
  ServiceConfig cfg;
  cfg.feature_grid = 32;
  cfg.feature_keep = 8;
  cfg.temperature = 1.2;
  cfg.max_batch = 8;
  cfg.max_queue = kProducers * kRequestsPerProducer;
  return cfg;
}

core::HotspotDetector make_detector() {
  core::DetectorConfig dcfg;
  dcfg.input_side = 8;
  return core::HotspotDetector(dcfg, stats::Rng(kSeed));
}

TEST(ServeConcurrency, ProducersGetBitIdenticalAnswers) {
  const std::vector<layout::Clip> clips = distinct_clips();

  // Serial reference, one clip at a time.
  std::vector<double> reference;
  {
    core::HotspotDetector det = make_detector();
    const data::FeatureExtractor fx(32, 8);
    for (const layout::Clip& clip : clips) {
      reference.push_back(
          det.probabilities(fx.extract_batch({clip}), 1.2)[0][1]);
    }
  }

  InferenceService service(concurrent_config(), make_detector());
  // clip_index[p][i] remembers which clip producer p's i-th request used.
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
        futures[p].push_back(service.submit(clips[ci]));
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
    }
  }
  service.shutdown();
}

TEST(ServeConcurrency, ShutdownRacingSubmittersNeverLosesARequest) {
  const std::vector<layout::Clip> clips = distinct_clips();
  std::vector<double> reference;
  {
    core::HotspotDetector det = make_detector();
    const data::FeatureExtractor fx(32, 8);
    for (const layout::Clip& clip : clips) {
      reference.push_back(
          det.probabilities(fx.extract_batch({clip}), 1.2)[0][1]);
    }
  }

  InferenceService service(concurrent_config(), make_detector());
  std::vector<std::vector<std::future<Response>>> futures(kProducers);
  std::vector<std::vector<std::size_t>> clip_index(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kRequestsPerProducer; ++i) {
        const std::size_t ci = (p + i) % kDistinctClips;
        clip_index[p].push_back(ci);
        futures[p].push_back(service.submit(clips[ci]));
      }
    });
  }
  // Shut down while producers are mid-stream; also exercise concurrent
  // shutdown() calls from two extra threads.
  std::thread racer1([&] { service.shutdown(); });
  std::thread racer2([&] { service.shutdown(); });
  racer1.join();
  racer2.join();
  for (auto& t : producers) t.join();

  // Every future resolves: admitted requests with exact bits, the rest
  // with the explicit shutdown rejection — nothing hangs, nothing is lost.
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
