// hsd_cli — command-line front end for the library.
//
//   hsd_cli build <benchmark> --out FILE [--scale S] [--seed N]
//       Build a benchmark population and save it as an HSDL bundle.
//   hsd_cli info <file>
//       Print the statistics of a saved benchmark.
//   hsd_cli run <benchmark|file> [--strategy NAME] [--iterations N]
//               [--batch K] [--query N] [--seed N] [--csv]
//               [--checkpoint-dir DIR] [--resume]
//       Run the PSHD active-learning flow and report Eq. 1 / Eq. 2 metrics.
//       Strategies: ours ts qp random coreset badge pred-entropy
//       With --checkpoint-dir every round is durably checkpointed; --resume
//       continues an interrupted run from the latest checkpoint.
//   hsd_cli pm <benchmark|file> [--mode exact|a95|a90|e2]
//       Run a pattern-matching baseline.
//   hsd_cli serve <benchmark|file> [--requests N] [--expired N]
//               [--max-batch K] [--max-queue Q]
//               [--cache N] [--shards S] [--train-epochs E]
//               [--checkpoint-dir DIR] [--transport inproc|uds|tcp]
//               [--endpoints EP1,EP2,...] [--drain-remote]
//       Stand up the dynamic-batching inference service, replay the
//       benchmark's clips through it, and print a JSON summary (status
//       counts, cache hits, throughput, latency percentiles). --shards S
//       serves through a content-routed fleet of S shards instead of one
//       standalone service (adds shed counts and per-shard ok counts).
//       --transport uds|tcp serves the same fleet over sockets: either
//       against in-process shard servers it spins up itself, or against
//       external `hsd_cli shard-server` processes named by --endpoints
//       (--drain-remote forwards the fleet drain to them as `shutdown`
//       RPCs). Answers are bit-identical across transports.
//       With --checkpoint-dir the model and temperature come from the
//       latest AL checkpoint; otherwise a model is quick-trained on the
//       benchmark.
//   hsd_cli shard-server <benchmark|file> --listen ENDPOINT
//               [--shard-index I] [--max-inflight M] [serve model/queue
//               options]
//       Host one inference shard of the multi-process fleet behind
//       "uds:/path.sock" or "tcp:host:port" (tcp port 0 = kernel-picked,
//       printed on stderr). Runs until a `shutdown` RPC or SIGTERM, then
//       drains gracefully: everything admitted is answered before exit.
//       Started from the same benchmark/seed/train options as its
//       siblings, every shard server trains a bit-identical model replica,
//       which is what makes the remote fleet's answers equal the
//       in-process fleet's.
//
//   <benchmark> is one of: iccad12 iccad16-1 iccad16-2 iccad16-3 iccad16-4;
//   anything else is treated as a saved-bundle path. An option a command
//   does not take is an error that names it, never silently ignored.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/calibration.hpp"
#include "core/framework.hpp"
#include "core/metrics.hpp"
#include "data/features.hpp"
#include "data/io.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pm/pattern_matching.hpp"
#include "serve/fleet.hpp"
#include "serve/remote.hpp"
#include "serve/service.hpp"

namespace {

using namespace hsd;

struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;

  std::optional<std::string> get(const std::string& key) const {
    for (const auto& [k, v] : options) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
  bool has(const std::string& key) const { return get(key).has_value(); }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::string key = a.substr(2);
      std::string value = "1";
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        value = argv[++i];
      }
      args.options.emplace_back(key, value);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

/// The options `cmd` accepts besides the observability taps; nullptr for an
/// unknown command. `--scale`/`--seed` pick the benchmark wherever one is
/// resolved by name.
const std::set<std::string>* command_options(const std::string& cmd) {
  static const std::map<std::string, std::set<std::string>> options = {
      {"build", {"out", "scale", "seed"}},
      {"info", {}},
      {"run",
       {"scale", "seed", "strategy", "iterations", "batch", "query", "csv", "rounds",
        "log-csv", "checkpoint-dir", "resume"}},
      {"pm", {"scale", "seed", "mode"}},
      {"serve",
       {"scale", "seed", "requests", "expired", "max-batch", "max-queue", "cache",
        "shards", "train-epochs", "checkpoint-dir", "transport", "endpoints",
        "drain-remote"}},
      {"shard-server",
       {"scale", "seed", "listen", "shard-index", "max-inflight", "max-batch",
        "max-queue", "cache", "train-epochs", "checkpoint-dir"}},
  };
  const auto it = options.find(cmd);
  return it == options.end() ? nullptr : &it->second;
}

/// The first option of `args` that `accepted` (plus --trace/--metrics)
/// does not name.
std::optional<std::string> unknown_option(const Args& args,
                                          const std::set<std::string>& accepted) {
  for (const auto& [key, value] : args.options) {
    if (key != "trace" && key != "metrics" && accepted.count(key) == 0) return key;
  }
  return std::nullopt;
}

int usage() {
  std::fprintf(stderr,
               "usage: hsd_cli <build|info|run|pm|serve|shard-server> <benchmark|file> [options]\n"
               "  build --out FILE [--scale S] [--seed N]\n"
               "  run   [--strategy ours|ts|qp|random|coreset|badge|pred-entropy]\n"
               "        [--iterations N] [--batch K] [--query N] [--seed N] [--csv]\n"
               "        [--rounds FILE]   per-round telemetry JSONL\n"
               "        [--checkpoint-dir DIR]  write round-<i>.ckpt after each round\n"
               "        [--resume]              continue from the latest checkpoint\n"
               "  pm    [--mode exact|a95|a90|e2]\n"
               "  serve [--requests N] [--expired N] [--max-batch K]\n"
               "        [--max-queue Q] [--cache N]\n"
               "        [--shards S] [--train-epochs E] [--seed N]\n"
               "        [--checkpoint-dir DIR]\n"
               "        [--transport inproc|uds|tcp]  serve the fleet over sockets\n"
               "        [--endpoints EP1,EP2,...]     use external shard servers\n"
               "        [--drain-remote]              forward drain as shutdown RPCs\n"
               "  shard-server --listen uds:/path.sock|tcp:host:port\n"
               "        [--shard-index I] [--max-inflight M] [serve model/queue opts]\n"
               "observability (any command; also via HSD_TRACE/HSD_METRICS env):\n"
               "  --trace FILE    Chrome trace_event JSON (chrome://tracing, Perfetto)\n"
               "  --metrics FILE  metrics registry snapshot JSON\n");
  return 2;
}

/// Enables span/metric collection from --trace/--metrics before any work
/// runs; the files are written at process exit.
void apply_obs_flags(const Args& args) {
  if (const auto path = args.get("trace")) obs::enable_trace(*path);
  if (const auto path = args.get("metrics")) obs::enable_metrics(*path);
}

std::optional<data::BenchmarkSpec> named_spec(const std::string& name, double scale,
                                              std::optional<std::uint64_t> seed) {
  data::BenchmarkSpec spec;
  if (name == "iccad12") {
    spec = data::iccad12_spec(scale);
  } else if (name == "iccad16-1") {
    spec = data::iccad16_spec(1);
  } else if (name == "iccad16-2") {
    spec = data::iccad16_spec(2);
  } else if (name == "iccad16-3") {
    spec = data::iccad16_spec(3);
  } else if (name == "iccad16-4") {
    spec = data::iccad16_spec(4);
  } else {
    return std::nullopt;
  }
  if (seed) spec.seed = *seed;
  return spec;
}

data::Benchmark resolve_benchmark(const std::string& target, const Args& args) {
  const double scale = args.get("scale") ? std::stod(*args.get("scale")) : 0.05;
  std::optional<std::uint64_t> seed;
  if (args.get("seed")) seed = std::stoull(*args.get("seed"));
  if (const auto spec = named_spec(target, scale, seed)) {
    std::fprintf(stderr, "building %s (%zu HS / %zu NHS)...\n", spec->name.c_str(),
                 spec->hs_target, spec->nhs_target);
    return data::build_benchmark(*spec);
  }
  std::fprintf(stderr, "loading %s...\n", target.c_str());
  return data::load_benchmark_file(target);
}

int cmd_build(const Args& args) {
  if (args.positional.size() < 2 || !args.has("out")) return usage();
  const data::Benchmark bench = resolve_benchmark(args.positional[1], args);
  data::save_benchmark_file(*args.get("out"), bench);
  std::printf("saved %zu clips (%zu hotspots) to %s\n", bench.size(),
              bench.num_hotspots, args.get("out")->c_str());
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const data::Benchmark bench = data::load_benchmark_file(args.positional[1]);
  std::printf("name:        %s\n", bench.spec.name.c_str());
  std::printf("clips:       %zu (%zu hotspots, %.2f%%)\n", bench.size(),
              bench.num_hotspots,
              100.0 * static_cast<double>(bench.num_hotspots) /
                  static_cast<double>(std::max<std::size_t>(bench.size(), 1)));
  std::printf("tech node:   %d nm\n", bench.spec.tech_nm);
  std::printf("clip side:   %d nm (step %d nm)\n", bench.spec.gen.clip_side,
              bench.spec.gen.step);
  std::printf("litho grid:  %zu px, sigma %.2f px, threshold %.2f\n", bench.spec.grid,
              bench.spec.optics.sigma_px, bench.spec.optics.resist_threshold);
  std::printf("chip layout: %zu x %zu clips\n", bench.chip_cols, bench.chip_rows);
  return 0;
}

std::optional<core::SamplerKind> parse_strategy(const std::string& name) {
  using core::SamplerKind;
  if (name == "ours") return SamplerKind::kEntropy;
  if (name == "ts") return SamplerKind::kTsOnly;
  if (name == "qp") return SamplerKind::kQp;
  if (name == "random") return SamplerKind::kRandom;
  if (name == "coreset") return SamplerKind::kCoreset;
  if (name == "badge") return SamplerKind::kBadge;
  if (name == "pred-entropy") return SamplerKind::kPredictiveEntropy;
  return std::nullopt;
}

int cmd_run(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const data::Benchmark bench = resolve_benchmark(args.positional[1], args);

  const data::FeatureExtractor fx(bench.spec.feature_grid, bench.spec.feature_keep);
  const tensor::Tensor features = fx.extract_benchmark(bench);

  core::FrameworkConfig cfg;
  const std::string strategy = args.get("strategy").value_or("ours");
  const auto kind = parse_strategy(strategy);
  if (!kind) {
    std::fprintf(stderr, "unknown strategy '%s'\n", strategy.c_str());
    return 2;
  }
  cfg.sampler.kind = *kind;
  const std::size_t n = bench.size();
  cfg.initial_train = std::clamp<std::size_t>(n / 40, 24, 160);
  cfg.validation = cfg.initial_train;
  cfg.query_size = std::clamp<std::size_t>(n / 6, 120, 1200);
  cfg.batch_k = std::clamp<std::size_t>(n / 80, 16, 96);
  cfg.iterations = 14;
  if (args.get("iterations")) cfg.iterations = std::stoul(*args.get("iterations"));
  if (args.get("batch")) cfg.batch_k = std::stoul(*args.get("batch"));
  if (args.get("query")) cfg.query_size = std::stoul(*args.get("query"));
  if (args.get("seed")) cfg.seed = std::stoull(*args.get("seed"));
  if (args.get("rounds")) cfg.round_log_path = *args.get("rounds");
  if (args.get("checkpoint-dir")) cfg.checkpoint_dir = *args.get("checkpoint-dir");
  if (args.has("resume")) {
    if (cfg.checkpoint_dir.empty()) {
      std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
      return 2;
    }
    cfg.resume = true;
  }

  litho::LithoOracle oracle = bench.make_oracle();
  const core::AlOutcome out =
      core::run_active_learning(cfg, features, bench.clips, oracle);
  const core::PshdMetrics m = core::evaluate_outcome(out, bench.labels);

  if (const auto log_path = args.get("log-csv")) {
    std::ofstream log(*log_path);
    if (!log) {
      std::fprintf(stderr, "cannot open %s\n", log_path->c_str());
      return 1;
    }
    core::write_iteration_csv(log, out);
    std::fprintf(stderr, "iteration log written to %s\n", log_path->c_str());
  }

  if (args.has("csv")) {
    std::printf("benchmark,strategy,accuracy,litho,hits,false_alarms,hs_train,"
                "temperature,pshd_seconds\n");
    std::printf("%s,%s,%.4f,%zu,%zu,%zu,%zu,%.4f,%.2f\n", bench.spec.name.c_str(),
                strategy.c_str(), m.accuracy, m.litho, m.hits, m.false_alarms,
                m.hs_train, out.final_temperature, m.pshd_seconds);
  } else {
    std::printf("%s / %s: Acc %.2f%%  Litho# %zu  (hits %zu, FA %zu, HS in train"
                " %zu, T=%.3f, %.2fs)\n",
                bench.spec.name.c_str(), strategy.c_str(), m.accuracy * 100.0, m.litho,
                m.hits, m.false_alarms, m.hs_train, out.final_temperature,
                m.pshd_seconds);
  }
  return 0;
}

int cmd_pm(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const data::Benchmark bench = resolve_benchmark(args.positional[1], args);
  const std::string mode = args.get("mode").value_or("exact");

  pm::PmConfig cfg;
  std::vector<std::vector<double>> rows;
  if (mode == "exact") {
    cfg.mode = pm::MatchMode::kExact;
  } else if (mode == "a95" || mode == "a90") {
    cfg.mode = pm::MatchMode::kSimilarity;
    cfg.sim_threshold = mode == "a95" ? 0.95 : 0.90;
    const data::FeatureExtractor fx(bench.spec.feature_grid, bench.spec.feature_keep);
    rows = data::to_double_rows(fx.extract_benchmark(bench));
  } else if (mode == "e2") {
    cfg.mode = pm::MatchMode::kEdgeTolerance;
    cfg.edge_tol = 2 * bench.spec.gen.step;
  } else {
    std::fprintf(stderr, "unknown pm mode '%s'\n", mode.c_str());
    return 2;
  }

  litho::LithoOracle oracle = bench.make_oracle();
  const pm::PmResult res = pm::run_pattern_matching(bench.clips, rows, oracle, cfg);
  const core::PshdMetrics m = core::evaluate_pm(res, bench.labels);
  std::printf("%s / pm-%s: Acc %.2f%%  Litho# %zu  (clusters %zu, FA %zu)\n",
              bench.spec.name.c_str(), mode.c_str(), m.accuracy * 100.0, m.litho,
              res.representatives.size(), m.false_alarms);
  return 0;
}

/// Nearest-rank percentile of an ascending vector (exact, not bucketed —
/// the CLI has every individual latency in hand).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Model + calibration shared by `serve` and `shard-server`: either
/// restored from the latest AL checkpoint or quick-trained on the
/// benchmark's own labels. Deterministic given the same benchmark, seed,
/// and epochs — two shard-server processes started with identical flags
/// train bit-identical replicas, the precondition for remote fleet answers
/// matching in-process ones.
struct PreparedModel {
  core::HotspotDetector detector;
  core::DetectorConfig dcfg;  ///< config the final model carries
  double temperature = 1.0;
  std::uint64_t seed = 7;
};

std::optional<PreparedModel> prepare_model(const data::Benchmark& bench,
                                           const Args& args) {
  core::DetectorConfig dcfg;
  dcfg.input_side = bench.spec.feature_keep;
  const std::uint64_t seed = args.get("seed") ? std::stoull(*args.get("seed")) : 7;
  core::HotspotDetector detector(dcfg, stats::Rng(seed));
  double temperature = 1.0;

  if (const auto dir = args.get("checkpoint-dir")) {
    const auto latest = ckpt::find_latest(*dir);
    if (!latest) {
      std::fprintf(stderr, "no checkpoint found in %s\n", dir->c_str());
      return std::nullopt;
    }
    std::fprintf(stderr, "restoring model from %s...\n", latest->c_str());
    const ckpt::RunState st = ckpt::load_file(*latest);
    std::istringstream blob(st.detector_state);
    detector.load_state(blob);
    temperature = st.last_temperature;
  } else {
    // No checkpoint: quick-train a model on the benchmark's own labels so
    // the service has something meaningful to serve, then fit T (Eq. 5).
    const std::size_t epochs =
        args.get("train-epochs") ? std::stoul(*args.get("train-epochs")) : 4;
    std::fprintf(stderr, "quick-training (%zu epochs)...\n", epochs);
    const data::FeatureExtractor fx(bench.spec.feature_grid, bench.spec.feature_keep);
    const tensor::Tensor features = fx.extract_benchmark(bench);
    dcfg.initial_epochs = epochs;
    detector = core::HotspotDetector(dcfg, stats::Rng(seed));
    detector.train_initial(features, bench.labels);
    const core::CalibrationResult cal =
        core::fit_temperature(detector.logits(features), bench.labels);
    temperature = cal.temperature;
  }
  return PreparedModel{std::move(detector), dcfg, temperature, seed};
}

/// Queue/batch knobs shared by `serve` and `shard-server`.
serve::ServiceConfig service_config_from_args(const data::Benchmark& bench,
                                              const Args& args) {
  serve::ServiceConfig scfg;
  scfg.feature_grid = bench.spec.feature_grid;
  scfg.feature_keep = bench.spec.feature_keep;
  if (args.get("max-batch")) scfg.max_batch = std::stoul(*args.get("max-batch"));
  if (args.get("max-queue")) scfg.max_queue = std::stoul(*args.get("max-queue"));
  if (args.get("cache")) scfg.cache_capacity = std::stoul(*args.get("cache"));
  return scfg;
}

int cmd_serve(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const data::Benchmark bench = resolve_benchmark(args.positional[1], args);

  serve::ServiceConfig scfg = service_config_from_args(bench, args);
  auto model = prepare_model(bench, args);
  if (!model) return 1;
  scfg.temperature = model->temperature;
  const std::uint64_t seed = model->seed;
  const core::DetectorConfig dcfg_used = model->dcfg;
  core::HotspotDetector detector = std::move(model->detector);

  const std::size_t requests =
      args.get("requests") ? std::stoul(*args.get("requests")) : bench.size();
  const std::size_t expired =
      args.get("expired") ? std::stoul(*args.get("expired")) : 0;
  std::size_t shards =
      args.get("shards") ? std::stoul(*args.get("shards")) : 0;

  const std::string transport = args.get("transport").value_or("inproc");
  if (transport != "inproc" && transport != "uds" && transport != "tcp") {
    std::fprintf(stderr, "unknown transport '%s'\n", transport.c_str());
    return 2;
  }
  std::vector<net::Endpoint> endpoints;
  if (const auto eps = args.get("endpoints")) {
    if (transport == "inproc") {
      std::fprintf(stderr, "--endpoints requires --transport uds|tcp\n");
      return 2;
    }
    std::size_t pos = 0;
    while (pos <= eps->size()) {
      std::size_t comma = eps->find(',', pos);
      if (comma == std::string::npos) comma = eps->size();
      const std::string one = eps->substr(pos, comma - pos);
      if (!one.empty()) endpoints.push_back(net::parse_endpoint(one));
      pos = comma + 1;
    }
    if (endpoints.empty()) return usage();
    shards = endpoints.size();
  }
  if (transport != "inproc" && shards == 0) shards = 1;

  // Drives `svc` (standalone InferenceService or FleetRouter — identical
  // submit surface) with the request stream and prints the result JSON.
  // `extra` appends transport-specific JSON fields before the close brace.
  std::vector<std::size_t> per_shard(shards > 0 ? shards : 1, 0);
  const auto drive = [&](auto& svc, const std::function<void()>& extra) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      const layout::Clip& clip = bench.clips[i % bench.size()];
      if (i < expired) {
        // A non-positive budget is already expired at submission; the next
        // batch answers it kDeadlineExceeded (deterministic smoke-test path).
        futures.push_back(svc.submit(clip, std::chrono::microseconds(-1)));
      } else {
        futures.push_back(svc.submit(clip));
      }
    }

    std::size_t ok = 0, queue_full = 0, after_shutdown = 0, deadline = 0;
    std::size_t shed = 0, net_timeout = 0, net_error = 0;
    std::size_t hotspots = 0, cache_hits = 0;
    std::vector<double> latencies;
    latencies.reserve(requests);
    for (auto& f : futures) {
      const serve::Response r = f.get();
      switch (r.status) {
        case serve::Status::kOk:
          ++ok;
          hotspots += r.hotspot ? 1 : 0;
          cache_hits += r.cache_hit ? 1 : 0;
          latencies.push_back(r.latency_seconds);
          if (r.shard < per_shard.size()) ++per_shard[r.shard];
          break;
        case serve::Status::kRejectedQueueFull: ++queue_full; break;
        case serve::Status::kRejectedShutdown: ++after_shutdown; break;
        case serve::Status::kDeadlineExceeded: ++deadline; break;
        case serve::Status::kShedFleetOverloaded: ++shed; break;
        case serve::Status::kNetTimeout: ++net_timeout; break;
        case serve::Status::kNetError: ++net_error; break;
      }
    }
    svc.shutdown();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    std::sort(latencies.begin(), latencies.end());
    std::printf("{\"benchmark\": \"%s\", \"requests\": %zu, \"ok\": %zu,\n"
                " \"rejected_queue_full\": %zu, \"rejected_shutdown\": %zu,\n"
                " \"deadline_exceeded\": %zu, \"fleet_overloaded\": %zu,\n"
                " \"net_timeout\": %zu, \"net_error\": %zu,\n"
                " \"hotspots\": %zu, \"cache_hits\": %zu,\n"
                " \"temperature\": %.4f, \"qps\": %.1f,\n"
                " \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f,\n"
                " \"transport\": \"%s\", \"shards\": %zu",
                bench.spec.name.c_str(), requests, ok, queue_full,
                after_shutdown, deadline, shed, net_timeout, net_error,
                hotspots, cache_hits, scfg.temperature,
                wall > 0 ? static_cast<double>(ok) / wall : 0.0,
                1e3 * percentile(latencies, 0.50),
                1e3 * percentile(latencies, 0.95),
                1e3 * percentile(latencies, 0.99), transport.c_str(), shards);
    if (shards > 0) {
      std::printf(",\n \"per_shard_ok\": [");
      for (std::size_t s = 0; s < per_shard.size(); ++s) {
        std::printf("%s%zu", s > 0 ? ", " : "", per_shard[s]);
      }
      std::printf("]");
    }
    if (extra) extra();
    std::printf("}\n");
  };

  if (transport != "inproc") {
    // Remote fleet: route over sockets to shard servers — in-process ones
    // spun up here (model replicated bit-identically from one state blob),
    // or external `hsd_cli shard-server` processes named by --endpoints.
    std::ostringstream blob;
    detector.save_state(blob);
    const std::string state = blob.str();

    std::vector<std::unique_ptr<serve::ShardServer>> servers;
    if (endpoints.empty()) {
      for (std::size_t i = 0; i < shards; ++i) {
        serve::ShardServerConfig sscfg;
        sscfg.service = scfg;
        sscfg.service.shard_index = static_cast<std::uint32_t>(i);
        sscfg.service.metric_prefix = "serve/shard" + std::to_string(i);
        if (transport == "uds") {
          sscfg.server.endpoint.kind = net::Endpoint::Kind::kUds;
          sscfg.server.endpoint.path = "/tmp/hsd-serve-" +
                                       std::to_string(::getpid()) + "-" +
                                       std::to_string(i) + ".sock";
        } else {
          sscfg.server.endpoint = net::parse_endpoint("tcp:127.0.0.1:0");
        }
        core::HotspotDetector replica(dcfg_used, stats::Rng(seed));
        std::istringstream is(state);
        replica.load_state(is);
        servers.push_back(
            std::make_unique<serve::ShardServer>(sscfg, std::move(replica)));
        servers.back()->start();
        endpoints.push_back(servers.back()->endpoint());
      }
    }

    const bool drain_remote = args.has("drain-remote");
    std::vector<serve::RemoteShard*> remotes;
    std::vector<std::unique_ptr<serve::Shard>> shard_ptrs;
    for (std::size_t i = 0; i < shards; ++i) {
      serve::RemoteShardConfig rcfg;
      rcfg.channel.endpoint = endpoints[i];
      rcfg.channel.seed = i;
      rcfg.channel.metric_prefix = "serve/net/client/shard" + std::to_string(i);
      rcfg.shard_index = static_cast<std::uint32_t>(i);
      rcfg.feature_grid = scfg.feature_grid;
      rcfg.drain_server = drain_remote;
      auto remote = std::make_unique<serve::RemoteShard>(rcfg);
      remotes.push_back(remote.get());
      shard_ptrs.push_back(std::move(remote));
    }
    serve::FleetConfig fcfg;
    fcfg.shard = scfg;
    serve::FleetRouter fleet(fcfg, std::move(shard_ptrs));
    drive(fleet, [&] {
      std::uint64_t retries = 0, reconnects = 0;
      for (const serve::RemoteShard* r : remotes) {
        const net::ChannelStats st = r->transport_stats();
        retries += st.retries;
        reconnects += st.reconnects;
      }
      std::printf(",\n \"net_retries\": %llu, \"net_reconnects\": %llu",
                  static_cast<unsigned long long>(retries),
                  static_cast<unsigned long long>(reconnects));
    });
    for (auto& srv : servers) srv->drain_and_stop();
  } else if (shards > 0) {
    // Replicate the trained model bit-identically onto every shard: the
    // factory reloads one serialized state blob, so it is pure by
    // construction (the fleet determinism contract).
    std::ostringstream blob;
    detector.save_state(blob);
    const std::string state = blob.str();
    serve::FleetConfig fcfg;
    fcfg.shards = shards;
    fcfg.shard = scfg;
    serve::FleetRouter fleet(fcfg, [&] {
      core::HotspotDetector replica(dcfg_used, stats::Rng(seed));
      std::istringstream is(state);
      replica.load_state(is);
      return replica;
    });
    drive(fleet, {});
  } else {
    serve::InferenceService service(scfg, std::move(detector));
    drive(service, {});
  }
  return 0;
}

// SIGTERM/SIGINT land here; the shard-server host loop polls the flag and
// runs the graceful drain on the main thread (signal-safe by construction:
// the handler only stores).
volatile std::sig_atomic_t g_shard_server_stop = 0;
void on_stop_signal(int) { g_shard_server_stop = 1; }

int cmd_shard_server(const Args& args) {
  if (args.positional.size() < 2 || !args.has("listen")) return usage();
  const data::Benchmark bench = resolve_benchmark(args.positional[1], args);

  auto model = prepare_model(bench, args);
  if (!model) return 1;

  const std::uint32_t shard_index =
      args.get("shard-index")
          ? static_cast<std::uint32_t>(std::stoul(*args.get("shard-index")))
          : 0;
  serve::ShardServerConfig cfg;
  cfg.service = service_config_from_args(bench, args);
  cfg.service.temperature = model->temperature;
  cfg.service.shard_index = shard_index;
  // Same prefix the in-process fleet assigns ring slot <i>, so dashboards
  // aggregate a multi-process fleet exactly like a single-process one.
  cfg.service.metric_prefix = "serve/shard" + std::to_string(shard_index);
  cfg.server.endpoint = net::parse_endpoint(*args.get("listen"));
  if (args.get("max-inflight")) {
    cfg.server.max_inflight = std::stoul(*args.get("max-inflight"));
  }

  serve::ShardServer server(cfg, std::move(model->detector));
  server.start();
  std::fprintf(stderr, "shard %u serving on %s\n", shard_index,
               net::to_string(server.endpoint()).c_str());

  g_shard_server_stop = 0;
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);
  while (!server.drain_requested() && !g_shard_server_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shard %u draining...\n", shard_index);
  server.drain_and_stop();
  std::printf("{\"shard\": %u, \"drained\": true}\n", shard_index);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.positional.empty()) return usage();
  const std::string& cmd = args.positional[0];
  const std::set<std::string>* accepted = command_options(cmd);
  if (accepted == nullptr) return usage();
  if (const auto bad = unknown_option(args, *accepted)) {
    std::fprintf(stderr, "hsd_cli %s: unknown option --%s\n", cmd.c_str(), bad->c_str());
    return 2;
  }
  apply_obs_flags(args);
  try {
    if (cmd == "build") return cmd_build(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "pm") return cmd_pm(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "shard-server") return cmd_shard_server(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
