// FleetRouter behavior: content routing matches the ring, per-shard caches
// keep a clip's features on exactly one shard, a full target shard sheds
// with the distinct fleet status (no spilling to siblings), graceful drain
// answers everything admitted, and the metrics rollup reconciles with the
// observed responses.

#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <vector>

#include "core/detector.hpp"
#include "layout/clip.hpp"
#include "obs/metrics.hpp"
#include "serve/fleet.hpp"
#include "stats/rng.hpp"

namespace hsd::serve {
namespace {

constexpr std::uint64_t kSeed = 11;

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

std::vector<layout::Clip> distinct_clips(std::size_t count) {
  std::vector<layout::Clip> clips;
  for (std::size_t i = 0; i < count; ++i) {
    clips.push_back(line_clip(static_cast<layout::Coord>(16 + (i % 32)),
                              static_cast<layout::Coord>((i / 32) * 8) - 64));
  }
  return clips;
}

core::HotspotDetector make_detector() {
  core::DetectorConfig dcfg;
  dcfg.input_side = 8;
  return core::HotspotDetector(dcfg, stats::Rng(kSeed));
}

FleetConfig base_config(std::size_t shards, bool manual = true) {
  FleetConfig fcfg;
  fcfg.shards = shards;
  fcfg.shard.feature_grid = 32;
  fcfg.shard.feature_keep = 8;
  fcfg.shard.manual_pump = manual;
  return fcfg;
}

class FleetMetricsEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::enable_metrics();
    obs::reset_metrics();
  }
  void TearDown() override {
    obs::disable_metrics();
    obs::reset_metrics();
  }
};

TEST(Fleet, RejectsZeroShards) {
  EXPECT_THROW(FleetRouter(base_config(0), make_detector), std::invalid_argument);
}

TEST(Fleet, ResponsesComeFromTheRingDeterminedShard) {
  FleetRouter fleet(base_config(4), make_detector);
  for (const layout::Clip& clip : distinct_clips(32)) {
    const std::size_t expected = fleet.shard_for(clip);
    const Response r = fleet.predict(clip);
    ASSERT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.shard, expected);
    EXPECT_EQ(fleet.shard_for_hash(r.content_hash), expected);
  }
}

TEST(Fleet, PlacementIsStableAcrossRouters) {
  FleetRouter a(base_config(8), make_detector);
  FleetRouter b(base_config(8), make_detector);
  for (const layout::Clip& clip : distinct_clips(64)) {
    EXPECT_EQ(a.shard_for(clip), b.shard_for(clip));
  }
}

TEST(Fleet, RepeatTrafficHitsTheOwningShardsCache) {
  FleetRouter fleet(base_config(4), make_detector);
  for (const layout::Clip& clip : distinct_clips(16)) {
    const Response cold = fleet.predict(clip);
    const Response warm = fleet.predict(clip);
    ASSERT_EQ(cold.status, Status::kOk);
    ASSERT_EQ(warm.status, Status::kOk);
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(warm.cache_hit);          // features were owned, and found
    EXPECT_EQ(warm.shard, cold.shard);    // by exactly one shard
    EXPECT_EQ(warm.probability, cold.probability);
  }
}

TEST_F(FleetMetricsEnv, FullTargetShardShedsWithDistinctStatus) {
  FleetConfig fcfg = base_config(2);
  fcfg.shard.max_queue = 1;
  FleetRouter fleet(fcfg, make_detector);

  // Two distinct clips owned by the same shard: the second submission finds
  // the owner's queue full and must shed — not spill to the idle sibling.
  const std::vector<layout::Clip> clips = distinct_clips(64);
  const layout::Clip* first = nullptr;
  const layout::Clip* second = nullptr;
  for (const layout::Clip& clip : clips) {
    if (!first) {
      first = &clip;
    } else if (fleet.shard_for(clip) == fleet.shard_for(*first)) {
      second = &clip;
      break;
    }
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);

  std::future<Response> admitted = fleet.submit(*first);
  std::future<Response> shed = fleet.submit(*second);

  // Shedding resolves immediately — no pump has run yet.
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Response shed_r = shed.get();
  EXPECT_EQ(shed_r.status, Status::kShedFleetOverloaded);
  EXPECT_EQ(shed_r.shard, fleet.shard_for(*first));

  while (fleet.pump() > 0) {
  }
  EXPECT_EQ(admitted.get().status, Status::kOk);

  EXPECT_EQ(obs::counter("serve/router/requests").value(), 2u);
  EXPECT_EQ(obs::counter("serve/router/shed").value(), 1u);
}

TEST(Fleet, GracefulDrainAnswersEverythingAdmitted) {
  // Threaded collectors: shutdown() lands while requests are still queued
  // on several shards at once.
  FleetConfig fcfg = base_config(4, /*manual=*/false);
  fcfg.shard.max_batch = 4;
  FleetRouter fleet(fcfg, make_detector);

  std::vector<std::future<Response>> futures;
  for (const layout::Clip& clip : distinct_clips(32)) {
    futures.push_back(fleet.submit(clip));
  }
  fleet.shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  // Post-drain submissions are refused, not queued forever.
  EXPECT_EQ(fleet.submit(distinct_clips(1)[0]).get().status,
            Status::kRejectedShutdown);
}

TEST_F(FleetMetricsEnv, RollupReconcilesWithResponses) {
  FleetRouter fleet(base_config(4), make_detector);
  const std::vector<layout::Clip> clips = distinct_clips(24);
  std::size_t ok = 0, hits = 0;
  std::vector<std::size_t> per_shard(4, 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (const layout::Clip& clip : clips) {
      const Response r = fleet.predict(clip);
      ASSERT_EQ(r.status, Status::kOk);
      ++ok;
      hits += r.cache_hit ? 1 : 0;
      ++per_shard[r.shard];
    }
  }

  // Fleet totals from the rollup equal what the responses reported.
  const obs::MetricsSnapshot fleet_totals = fleet.fleet_rollup();
  std::uint64_t completed = 0, cache_hits = 0;
  for (const auto& [name, value] : fleet_totals.counters) {
    if (name == "serve/fleet/completed") completed = value;
    if (name == "serve/fleet/cache_hits") cache_hits = value;
  }
  EXPECT_EQ(completed, ok);
  EXPECT_EQ(cache_hits, hits);

  // And the per-shard counters individually match the response stamps.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(
        obs::counter("serve/shard" + std::to_string(s) + "/completed").value(),
        per_shard[s])
        << "shard " << s;
  }
}

}  // namespace
}  // namespace hsd::serve
