#pragma once
// Identifier registry: the single source of truth for every HSD_*
// environment variable and every obs metric/span name the project emits.
// hsd_lint's registry pass enforces the contract (see DESIGN.md §14):
//
//   * each identifier is registered here exactly once, on a line tagged
//     `hsd-reg: env|metric|span`;
//   * an HSD_* string literal anywhere else is a finding — call sites
//     spell env vars via these constants;
//   * metric/span names at obs call sites stay as literals (the name at
//     the emission site is the documentation), but must match a
//     registered pattern. `%` in a pattern matches any substring, which
//     is how per-shard (`serve/shard3/requests`), per-backend
//     (`tensor/backend/avx2/selected`), and rollup (`serve/fleet/...`)
//     families are covered by one entry;
//   * every entry must be mentioned in DESIGN.md/README.md, so no knob
//     or signal ships undocumented.
//
// Adding an identifier: declare it here with the tag comment, use the
// constant (env) or the literal (metric/span) at the call site, and add a
// row to the table in DESIGN.md §14.

namespace hsd::reg {

// --- environment variables -------------------------------------------------

// Core runtime and observability knobs.
inline constexpr const char kEnvThreads[] = "HSD_THREADS";  // hsd-reg: env
inline constexpr const char kEnvMetrics[] = "HSD_METRICS";  // hsd-reg: env
inline constexpr const char kEnvTrace[] = "HSD_TRACE";  // hsd-reg: env
inline constexpr const char kEnvRoundLog[] = "HSD_ROUND_LOG";  // hsd-reg: env
inline constexpr const char kEnvBackend[] = "HSD_BACKEND";  // hsd-reg: env
inline constexpr const char kEnvFaultAfterRound[] = "HSD_FAULT_AFTER_ROUND";  // hsd-reg: env
inline constexpr const char kEnvFaultNet[] = "HSD_FAULT_NET";  // hsd-reg: env

// Benchmark harness knobs (bench/).
inline constexpr const char kEnvIccad12Scale[] = "HSD_ICCAD12_SCALE";  // hsd-reg: env
inline constexpr const char kEnvRepeats[] = "HSD_REPEATS";  // hsd-reg: env
inline constexpr const char kEnvBenchRounds[] = "HSD_BENCH_ROUNDS";  // hsd-reg: env
inline constexpr const char kEnvBenchWarmup[] = "HSD_BENCH_WARMUP";  // hsd-reg: env
inline constexpr const char kEnvServeRequests[] = "HSD_SERVE_REQUESTS";  // hsd-reg: env
inline constexpr const char kEnvServeProducers[] = "HSD_SERVE_PRODUCERS";  // hsd-reg: env
inline constexpr const char kEnvServeDistinct[] = "HSD_SERVE_DISTINCT";  // hsd-reg: env
inline constexpr const char kEnvServeUniverse[] = "HSD_SERVE_UNIVERSE";  // hsd-reg: env
inline constexpr const char kEnvServeRepeats[] = "HSD_SERVE_REPEATS";  // hsd-reg: env
inline constexpr const char kEnvServeShards[] = "HSD_SERVE_SHARDS";  // hsd-reg: env
inline constexpr const char kEnvServeTransports[] = "HSD_SERVE_TRANSPORTS";  // hsd-reg: env

// --- metrics ---------------------------------------------------------------

// litho oracle.
inline constexpr const char kMetLithoOracleCalls[] = "litho/oracle_calls";  // hsd-reg: metric
inline constexpr const char kMetLithoSimulateSeconds[] = "litho/simulate_seconds";  // hsd-reg: metric

// data pipeline.
inline constexpr const char kMetDataClipsFeaturized[] = "data/clips_featurized";  // hsd-reg: metric

// tensor kernels and backend dispatch.
inline constexpr const char kMetTensorMatmulCalls[] = "tensor/matmul_calls";  // hsd-reg: metric
inline constexpr const char kMetTensorDct2dCalls[] = "tensor/dct2d_calls";  // hsd-reg: metric
inline constexpr const char kMetTensorDct2dBatchCalls[] = "tensor/dct2d_batch_calls";  // hsd-reg: metric
inline constexpr const char kMetTensorBackend[] = "tensor/backend";  // hsd-reg: metric
inline constexpr const char kMetTensorBackendSelected[] = "tensor/backend/%/selected";  // hsd-reg: metric
inline constexpr const char kMetTensorGemm[] = "tensor/%/gemm";  // hsd-reg: metric
inline constexpr const char kMetTensorGemmAtB[] = "tensor/%/gemm_at_b";  // hsd-reg: metric
inline constexpr const char kMetTensorGemmABt[] = "tensor/%/gemm_a_bt";  // hsd-reg: metric

// checkpointing.
inline constexpr const char kMetCkptWrites[] = "ckpt/writes";  // hsd-reg: metric
inline constexpr const char kMetCkptBytes[] = "ckpt/bytes";  // hsd-reg: metric
inline constexpr const char kMetCkptWriteSeconds[] = "ckpt/write_seconds";  // hsd-reg: metric

// active-learning loop.
inline constexpr const char kMetAlRounds[] = "al/rounds";  // hsd-reg: metric
inline constexpr const char kMetAlTemperature[] = "al/temperature";  // hsd-reg: metric
inline constexpr const char kMetAlEce[] = "al/ece";  // hsd-reg: metric

// serving. The `%` absorbs the placement infix: "" for the standalone
// service, "/shard<i>" per fleet shard, "/fleet" for rollup totals.
inline constexpr const char kMetServeShardPrefix[] = "serve/shard%";  // hsd-reg: metric
inline constexpr const char kMetServeRequests[] = "serve%/requests";  // hsd-reg: metric
inline constexpr const char kMetServeAccepted[] = "serve%/accepted";  // hsd-reg: metric
inline constexpr const char kMetServeCompleted[] = "serve%/completed";  // hsd-reg: metric
inline constexpr const char kMetServeRejectedQueueFull[] = "serve%/rejected_queue_full";  // hsd-reg: metric
inline constexpr const char kMetServeRejectedShutdown[] = "serve%/rejected_shutdown";  // hsd-reg: metric
inline constexpr const char kMetServeDeadlineExceeded[] = "serve%/deadline_exceeded";  // hsd-reg: metric
inline constexpr const char kMetServeBatches[] = "serve%/batches";  // hsd-reg: metric
inline constexpr const char kMetServeCacheHits[] = "serve%/cache_hits";  // hsd-reg: metric
inline constexpr const char kMetServeCacheMisses[] = "serve%/cache_misses";  // hsd-reg: metric
inline constexpr const char kMetServeQueueDepth[] = "serve%/queue_depth";  // hsd-reg: metric
inline constexpr const char kMetServeLatencySeconds[] = "serve%/latency_seconds";  // hsd-reg: metric
inline constexpr const char kMetServeBatchSeconds[] = "serve%/batch_seconds";  // hsd-reg: metric
inline constexpr const char kMetServeBatchFill[] = "serve%/batch_fill";  // hsd-reg: metric
inline constexpr const char kMetServeRouterRequests[] = "serve%/router/requests";  // hsd-reg: metric
inline constexpr const char kMetServeRouterShed[] = "serve%/router/shed";  // hsd-reg: metric

// serving RPC transport (src/net). Server side registers full literals;
// client channels register under "serve/net/client[/shard<i>]" — the `%`
// absorbs the per-shard infix.
inline constexpr const char kMetNetServerConnections[] = "serve/net/server/connections";  // hsd-reg: metric
inline constexpr const char kMetNetServerFramesIn[] = "serve/net/server/frames_in";  // hsd-reg: metric
inline constexpr const char kMetNetServerFramesOut[] = "serve/net/server/frames_out";  // hsd-reg: metric
inline constexpr const char kMetNetServerBytesIn[] = "serve/net/server/bytes_in";  // hsd-reg: metric
inline constexpr const char kMetNetServerBytesOut[] = "serve/net/server/bytes_out";  // hsd-reg: metric
inline constexpr const char kMetNetServerOverflowRejects[] = "serve/net/server/overflow_rejects";  // hsd-reg: metric
inline constexpr const char kMetNetServerShutdownRpcs[] = "serve/net/server/shutdown_rpcs";  // hsd-reg: metric
inline constexpr const char kMetNetServerRpcSeconds[] = "serve/net/server/rpc_seconds";  // hsd-reg: metric
inline constexpr const char kMetNetClientRequests[] = "serve/net/client%/requests";  // hsd-reg: metric
inline constexpr const char kMetNetClientBytesOut[] = "serve/net/client%/bytes_out";  // hsd-reg: metric
inline constexpr const char kMetNetClientBytesIn[] = "serve/net/client%/bytes_in";  // hsd-reg: metric
inline constexpr const char kMetNetClientRetries[] = "serve/net/client%/retries";  // hsd-reg: metric
inline constexpr const char kMetNetClientReconnects[] = "serve/net/client%/reconnects";  // hsd-reg: metric
inline constexpr const char kMetNetClientTimeouts[] = "serve/net/client%/timeouts";  // hsd-reg: metric
inline constexpr const char kMetNetClientNetErrors[] = "serve/net/client%/net_errors";  // hsd-reg: metric
inline constexpr const char kMetNetClientRpcSeconds[] = "serve/net/client%/rpc_seconds";  // hsd-reg: metric

// --- trace spans -----------------------------------------------------------

// active-learning loop phases.
inline constexpr const char kSpanAlRun[] = "al/run";  // hsd-reg: span
inline constexpr const char kSpanAlRound[] = "al/round";  // hsd-reg: span
inline constexpr const char kSpanAlInitialTrain[] = "al/initial_train";  // hsd-reg: span
inline constexpr const char kSpanAlGmmDensity[] = "al/gmm_density";  // hsd-reg: span
inline constexpr const char kSpanAlGmmQuery[] = "al/gmm_query";  // hsd-reg: span
inline constexpr const char kSpanAlCalibration[] = "al/calibration";  // hsd-reg: span
inline constexpr const char kSpanAlScoring[] = "al/scoring";  // hsd-reg: span
inline constexpr const char kSpanAlLabeling[] = "al/labeling";  // hsd-reg: span
inline constexpr const char kSpanAlFinetune[] = "al/finetune";  // hsd-reg: span
inline constexpr const char kSpanAlCheckpoint[] = "al/checkpoint";  // hsd-reg: span
inline constexpr const char kSpanAlFinalInference[] = "al/final_inference";  // hsd-reg: span

// sampling internals.
inline constexpr const char kSpanCoreUncertaintyScan[] = "core/uncertainty_scan";  // hsd-reg: span
inline constexpr const char kSpanCoreSimilarityMatrix[] = "core/similarity_matrix";  // hsd-reg: span
inline constexpr const char kSpanCoreDiversityScores[] = "core/diversity_scores";  // hsd-reg: span

// litho simulation.
inline constexpr const char kSpanLithoSimulate[] = "litho/simulate";  // hsd-reg: span
inline constexpr const char kSpanLithoSimulateBatch[] = "litho/simulate_batch";  // hsd-reg: span
inline constexpr const char kSpanLithoLabelBatch[] = "litho/label_batch";  // hsd-reg: span
inline constexpr const char kSpanLithoAerial[] = "litho/aerial";  // hsd-reg: span

// feature extraction, network layers and kernels.
inline constexpr const char kSpanDataDctFeatures[] = "data/dct_features";  // hsd-reg: span
inline constexpr const char kSpanNnConvFwd[] = "nn/conv_fwd";  // hsd-reg: span
inline constexpr const char kSpanNnConvBwd[] = "nn/conv_bwd";  // hsd-reg: span
inline constexpr const char kSpanNnDenseFwd[] = "nn/dense_fwd";  // hsd-reg: span
inline constexpr const char kSpanNnDenseBwd[] = "nn/dense_bwd";  // hsd-reg: span
inline constexpr const char kSpanNnPoolFwd[] = "nn/pool_fwd";  // hsd-reg: span
inline constexpr const char kSpanNnPoolBwd[] = "nn/pool_bwd";  // hsd-reg: span
inline constexpr const char kSpanNnReluBwd[] = "nn/relu_bwd";  // hsd-reg: span
inline constexpr const char kSpanNnAdamStep[] = "nn/adam_step";  // hsd-reg: span
inline constexpr const char kSpanTensorDct2dBatch[] = "tensor/dct2d_batch";  // hsd-reg: span
inline constexpr const char kSpanTensorMatmul[] = "tensor/matmul";  // hsd-reg: span
inline constexpr const char kSpanTensorMatmulAtB[] = "tensor/matmul_at_b";  // hsd-reg: span
inline constexpr const char kSpanTensorMatmulABt[] = "tensor/matmul_a_bt";  // hsd-reg: span
inline constexpr const char kSpanTensorIm2col[] = "tensor/im2col";  // hsd-reg: span
inline constexpr const char kSpanTensorCol2im[] = "tensor/col2im";  // hsd-reg: span

// serving pipeline.
inline constexpr const char kSpanServeBatch[] = "serve/batch";  // hsd-reg: span
inline constexpr const char kSpanServeFeatures[] = "serve/features";  // hsd-reg: span
inline constexpr const char kSpanServeForward[] = "serve/forward";  // hsd-reg: span

// serving RPC transport.
inline constexpr const char kSpanNetConnect[] = "net/connect";  // hsd-reg: span
inline constexpr const char kSpanNetHandle[] = "net/handle";  // hsd-reg: span

}  // namespace hsd::reg
