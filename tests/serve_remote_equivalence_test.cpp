// The remote-fleet determinism contract (DESIGN.md §16): routing over
// sockets to shard servers in other processes is a transport swap, never a
// numerics change. Answers through RemoteShard -> net::Channel -> ShardServer
// are bit-identical to one-at-a-time detector inference at every shard
// count x batch cut x thread count, over UDS and TCP, including across a
// mid-drain shutdown and across injected connection kills (where the
// request is silently re-executed — safe because shard inference is a pure
// function of clip content).
//
// The servers here run in-process (same binary, real sockets) so the test
// is hermetic; the CI smoke job exercises true separate processes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "data/features.hpp"
#include "layout/clip.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/fleet.hpp"
#include "serve/remote.hpp"
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

/// The pure replica factory: every shard server carries identical weights.
core::HotspotDetector make_replica() {
  return core::HotspotDetector(detector_config(), stats::Rng(kSeed));
}

ServiceConfig shard_service_config(std::uint32_t shard_index,
                                   std::size_t max_batch) {
  ServiceConfig scfg;
  scfg.feature_grid = 32;
  scfg.feature_keep = 8;
  scfg.temperature = kTemperature;
  scfg.max_batch = max_batch;
  scfg.shard_index = shard_index;
  scfg.metric_prefix = "serve/shard" + std::to_string(shard_index);
  return scfg;
}

net::Endpoint fresh_endpoint(bool tcp) {
  if (tcp) return net::parse_endpoint("tcp:127.0.0.1:0");
  static int counter = 0;
  net::Endpoint ep;
  ep.kind = net::Endpoint::Kind::kUds;
  ep.path = "/tmp/hsd-remote-eq-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++) + ".sock";
  return ep;
}

/// A remote fleet plus the in-process servers backing it.
struct RemoteFleet {
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<FleetRouter> router;
  std::vector<RemoteShard*> remotes;

  RemoteFleet() = default;
  RemoteFleet(RemoteFleet&&) = default;
  RemoteFleet& operator=(RemoteFleet&&) = default;

  ~RemoteFleet() {
    router.reset();  // drains channels before the servers go down
    for (auto& s : servers) s->drain_and_stop();
  }
};

RemoteFleet make_remote_fleet(std::size_t shards, std::size_t max_batch,
                              bool tcp, const std::string& fault_spec = "") {
  RemoteFleet fleet;
  std::vector<std::unique_ptr<Shard>> shard_ptrs;
  for (std::size_t i = 0; i < shards; ++i) {
    ShardServerConfig sscfg;
    sscfg.service =
        shard_service_config(static_cast<std::uint32_t>(i), max_batch);
    sscfg.server.endpoint = fresh_endpoint(tcp);
    fleet.servers.push_back(
        std::make_unique<ShardServer>(sscfg, make_replica()));
    fleet.servers.back()->start();

    RemoteShardConfig rcfg;
    rcfg.channel.endpoint = fleet.servers.back()->endpoint();
    rcfg.channel.seed = i;
    rcfg.channel.metric_prefix = "serve/net/client/shard" + std::to_string(i);
    rcfg.channel.fault_spec = fault_spec;
    rcfg.shard_index = static_cast<std::uint32_t>(i);
    rcfg.feature_grid = 32;
    auto remote = std::make_unique<RemoteShard>(rcfg);
    fleet.remotes.push_back(remote.get());
    shard_ptrs.push_back(std::move(remote));
  }
  FleetConfig fcfg;
  fcfg.shard = shard_service_config(0, max_batch);
  fleet.router =
      std::make_unique<FleetRouter>(fcfg, std::move(shard_ptrs));
  return fleet;
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

TEST(RemoteEquivalence, UdsBitIdenticalAtEveryShardCountAndThreadCount) {
  const std::vector<layout::Clip> clips = request_stream();
  const std::vector<double> reference = reference_probabilities(clips);

  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{8}}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        runtime::set_global_threads(threads);
        RemoteFleet fleet = make_remote_fleet(shards, max_batch, false);

        std::vector<std::future<Response>> futures;
        for (const layout::Clip& clip : clips) {
          futures.push_back(fleet.router->submit(clip));
        }

        const std::string label = "shards=" + std::to_string(shards) +
                                  " max_batch=" + std::to_string(max_batch) +
                                  " threads=" + std::to_string(threads);
        for (std::size_t i = 0; i < futures.size(); ++i) {
          const Response r = futures[i].get();
          ASSERT_EQ(r.status, Status::kOk) << label << " request " << i;
          // Exact double equality: the contract is bit-identity.
          EXPECT_EQ(r.probability, reference[i]) << label << " request " << i;
          // The answering shard is the content-routed owner, so remote
          // placement matches the in-process fleet's.
          EXPECT_EQ(r.shard, fleet.router->shard_for(clips[i]))
              << label << " request " << i;
        }
      }
    }
  }
  runtime::set_global_threads(1);
}

TEST(RemoteEquivalence, TcpMatchesUdsAndReference) {
  const std::vector<layout::Clip> clips = request_stream();
  const std::vector<double> reference = reference_probabilities(clips);

  runtime::set_global_threads(4);
  RemoteFleet fleet = make_remote_fleet(2, 8, true);
  std::vector<std::future<Response>> futures;
  for (const layout::Clip& clip : clips) {
    futures.push_back(fleet.router->submit(clip));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "tcp request " << i;
    EXPECT_EQ(r.probability, reference[i]) << "tcp request " << i;
  }
  runtime::set_global_threads(1);
}

TEST(RemoteEquivalence, MidDrainShutdownCompletesWithIdenticalBits) {
  const std::vector<layout::Clip> clips = request_stream();
  const std::vector<double> reference = reference_probabilities(clips);

  // The drain lands while requests are still queued server-side, and
  // every admitted request still gets the exact per-clip answer.
  runtime::set_global_threads(4);
  RemoteFleet fleet = make_remote_fleet(4, 4, false);

  std::vector<std::future<Response>> futures;
  for (const layout::Clip& clip : clips) {
    futures.push_back(fleet.router->submit(clip));
  }
  for (auto& server : fleet.servers) server->drain_and_stop();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "mid-drain request " << i;
    EXPECT_EQ(r.probability, reference[i]) << "mid-drain request " << i;
  }
  runtime::set_global_threads(1);
}

TEST(RemoteEquivalence, RetryAfterConnectionKillIsBitIdenticalAndIdempotent) {
  const std::vector<layout::Clip> clips = request_stream();
  const std::vector<double> reference = reference_probabilities(clips);

  // drop-recv@3: the third call's connection is killed right after the
  // request was sent, so its response is lost. The channel reconnects and
  // resends every in-flight call; the server executes the request again —
  // harmless, because the verdict is a pure function of the shipped bitmap
  // (the only observable difference is latency, never bits and never a
  // duplicated response to a *different* request id).
  runtime::set_global_threads(1);
  RemoteFleet fleet = make_remote_fleet(1, 4, false, "drop-recv@3");

  std::vector<std::future<Response>> futures;
  for (const layout::Clip& clip : clips) {
    futures.push_back(fleet.router->submit(clip));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    ASSERT_EQ(r.status, Status::kOk) << "request " << i;
    EXPECT_EQ(r.probability, reference[i]) << "request " << i;
  }

  // The promise resolves before the channel's own bookkeeping decrement, so
  // quiesce the transport before reading its counters.
  fleet.remotes[0]->shutdown();
  const net::ChannelStats stats = fleet.remotes[0]->transport_stats();
  EXPECT_EQ(stats.reconnects, 1u);  // exactly the injected kill
  EXPECT_GE(stats.retries, 1u);     // the dropped call was resent
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.net_errors, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
}

TEST(RemoteEquivalence, ExpiredDeadlineTravelsAsRelativeBudget) {
  const std::vector<layout::Clip> clips = request_stream();

  runtime::set_global_threads(1);
  RemoteFleet fleet = make_remote_fleet(1, 4, false);
  // Already expired at submission: the server resolves the negative budget
  // against its own clock and answers kDeadlineExceeded, exactly like the
  // in-process service.
  std::future<Response> f =
      fleet.router->submit(clips[0], std::chrono::microseconds(-1));
  EXPECT_EQ(f.get().status, Status::kDeadlineExceeded);
}

}  // namespace
}  // namespace hsd::serve
