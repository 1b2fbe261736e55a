// PERF — engineering microbenchmarks for the hot paths: model
// construction (separable box sums), single flips (O(N) incremental
// updates), full Glauber runs, the distance transform and sampled
// region queries behind the region metrics, the almost-mono field, and
// prefix-sum construction.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "analysis/almost.h"
#include "analysis/clusters.h"
#include "analysis/correlation.h"
#include "analysis/regions.h"
#include "analysis/streaming.h"
#include "campaign/campaign.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "graph/topology.h"
#include "grid/box_sum.h"
#include "grid/distance_transform.h"
#include "grid/prefix_sum.h"
#include "lattice/sharded.h"
#include "obs/endpoint.h"
#include "obs/telemetry.h"
#include "rng/splitmix64.h"

namespace {

void BM_ModelInit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  seg::ModelParams params{.n = n, .w = w, .tau = 0.45, .p = 0.5};
  seg::Rng rng(1);
  const auto spins = seg::random_spins(n, 0.5, rng);
  for (auto _ : state) {
    seg::SchellingModel model(params, spins);
    benchmark::DoNotOptimize(model.count_unhappy());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ModelInit)
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 10})
    ->Args({512, 10});

// Draw plus build through the Rng constructor, the campaign replica's
// setup path: a fresh Bernoulli(p) field every iteration. {256, 2} is the
// phase_diagram shape.
void BM_ModelInitDraw(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  seg::ModelParams params{.n = n, .w = w, .tau = 0.45, .p = 0.5};
  seg::Rng rng(1);
  for (auto _ : state) {
    seg::SchellingModel model(params, rng);
    benchmark::DoNotOptimize(model.count_unhappy());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ModelInitDraw)->Args({256, 2})->Args({256, 10});

void BM_Flip(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  seg::ModelParams params{.n = 128, .w = w, .tau = 0.45, .p = 0.5};
  seg::Rng rng(2);
  seg::SchellingModel model(params, rng);
  std::uint32_t id = 0;
  for (auto _ : state) {
    model.flip(id);  // flip and flip back: state stays bounded
    model.flip(id);
    id = (id + 97) % (128 * 128);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Flip)->Arg(2)->Arg(4)->Arg(10);

// The same torus expressed as a GraphTopology, driven through the
// engine's graph mode (CSR row walk, per-degree-class tables, one flat
// bit row). The BM_FlipGraphTorus/<w> : BM_Flip/<w> ratio is the
// generic-graph overhead factor on the torus fast path's home turf —
// scripts/bench.sh records it as context.graph_overhead and
// scripts/audit.py ties the README claim to it.
void BM_FlipGraphTorus(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  seg::ModelParams params{.n = 128, .w = w, .tau = 0.45, .p = 0.5};
  const auto graph = std::make_shared<const seg::GraphTopology>(
      seg::GraphTopology::torus(
          params.n, seg::neighborhood_offsets(params.shape, params.w)));
  seg::Rng rng(2);
  seg::SchellingModel model(params, graph, rng);
  std::uint32_t id = 0;
  for (auto _ : state) {
    model.flip(id);  // flip and flip back: state stays bounded
    model.flip(id);
    id = (id + 97) % (128 * 128);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FlipGraphTorus)->Arg(2)->Arg(4)->Arg(10);

// Telemetry overhead on the hottest call: the same flip/flip-back loop as
// BM_Flip (w = 10) with the telemetry runtime switch off (arg 0) or on
// (arg 1). Arg 0 measures what every non-instrumented run pays for the
// SEG_COUNT("engine.flips") macro compiled into flip() — one relaxed bool
// load and a predicted branch; the acceptance budget is <= 2% over
// BM_Flip/10 (scripts/bench.sh records the ratio, and
// scripts/telemetry_gate.sh additionally compares against a build with
// SEG_TELEMETRY=OFF, where the macro does not exist at all). Arg 1 is the
// full per-flip slab bump that live telemetry costs.
void BM_FlipTelemetry(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  seg::ModelParams params{.n = 128, .w = 10, .tau = 0.45, .p = 0.5};
  seg::Rng rng(2);
  seg::SchellingModel model(params, rng);
  const bool was_enabled = seg::obs::enabled();
  seg::obs::set_enabled(enabled);
  std::uint32_t id = 0;
  for (auto _ : state) {
    model.flip(id);  // flip and flip back: state stays bounded
    model.flip(id);
    id = (id + 97) % (128 * 128);
  }
  seg::obs::set_enabled(was_enabled);
  state.SetItemsProcessed(state.iterations() * 2);
  state.counters["telemetry"] = enabled ? 1 : 0;
}
BENCHMARK(BM_FlipTelemetry)->Arg(0)->Arg(1);

// BM_GlauberRun/<n>/<w>/<clock>: one full run to absorption. clock 1 is
// the timed loop (an Exp(|flippable|) waiting time per flip), clock 0
// the untimed loop campaigns run when no time column is requested; both
// make the same flips.
void BM_GlauberRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  seg::ModelParams params{.n = n, .w = w, .tau = 0.45, .p = 0.5};
  seg::RunOptions opt;
  opt.track_time = state.range(2) != 0;
  std::uint64_t flips = 0;
  for (auto _ : state) {
    state.PauseTiming();
    seg::Rng init(3);
    seg::SchellingModel model(params, init);
    seg::Rng dyn(4);
    state.ResumeTiming();
    const seg::RunResult r = seg::run_glauber(model, dyn, opt);
    benchmark::DoNotOptimize(r.flips);
    flips += r.flips;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flips));
}
BENCHMARK(BM_GlauberRun)->ArgsProduct({{64}, {2}, {0, 1}});
BENCHMARK(BM_GlauberRun)->ArgsProduct({{128}, {2, 4, 10}, {0, 1}});

// One GET /metrics against the loopback endpoint; the scraper thread in
// BM_GlauberRunScraped calls this at its polling cadence.
bool scrape_once(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  const char req[] = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  (void)!::send(fd, req, sizeof(req) - 1, 0);
  char buf[4096];
  std::size_t total = 0;
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    total += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return total > 0;
}

// Exporter overhead under load: the BM_GlauberRun/128/10 workload with
// live telemetry, without (arg 0) and with (arg 1) a
// /metrics endpoint being scraped every ~10ms from another thread.
// scripts/bench.sh records the on/off ratio as
// context.metrics_endpoint_overhead (min over repetitions); the README
// "Observability endpoint" claim and scripts/audit.py hold it to <= 2%.
// The endpoint renders registry snapshots only, so the cost is cache
// pressure from the render loop — nothing in the simulation synchronizes
// with the scraper.
void BM_GlauberRunScraped(benchmark::State& state) {
  const bool scraped = state.range(0) != 0;
  const bool was_enabled = seg::obs::enabled();
  seg::obs::set_enabled(true);

  seg::obs::MetricsServer server;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread scraper;
  if (scraped && server.start(0)) {
    const std::uint16_t port = server.port();
    scraper = std::thread([port, &stop, &scrapes] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (scrape_once(port)) scrapes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  seg::ModelParams params{.n = 128, .w = 10, .tau = 0.45, .p = 0.5};
  std::uint64_t flips = 0;
  for (auto _ : state) {
    state.PauseTiming();
    seg::Rng init(3);
    seg::SchellingModel model(params, init);
    seg::Rng dyn(4);
    state.ResumeTiming();
    const seg::RunResult r = seg::run_glauber(model, dyn);
    benchmark::DoNotOptimize(r.flips);
    flips += r.flips;
  }

  stop.store(true);
  if (scraper.joinable()) scraper.join();
  server.stop();
  seg::obs::set_enabled(was_enabled);
  state.SetItemsProcessed(static_cast<std::int64_t>(flips));
  state.counters["scraped"] = scraped ? 1 : 0;
  state.counters["scrapes"] = static_cast<double>(scrapes.load());
}
BENCHMARK(BM_GlauberRunScraped)->Arg(0)->Arg(1);

// Giant-lattice sweep throughput: a fixed flip budget on a fresh
// tau = 0.45 lattice, serial engine (shards = 0) versus the sharded
// sweep engine at 1/2/4/8 stripes. Rate (items == applied flips) is the
// comparison metric, so serial and sharded rows are directly comparable
// even though the sharded runs may overshoot the budget by one sweep
// quantum. Thread count follows the hardware (capped at the shard
// count) — on a single-core host the sharded rows measure pure framework
// overhead; the scaling headroom needs real cores.
void glauber_sweep(benchmark::State& state, std::size_t threads) {
  const int n = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const int w = 4;
  seg::ModelParams params{.n = n, .w = w, .tau = 0.45, .p = 0.5};
  seg::Rng spin_rng(3);
  // One shared initial configuration; each iteration restarts from it so
  // the dynamics never runs into the absorbing tail where the flippable
  // set thins out.
  const auto spins = seg::random_spins(n, 0.5, spin_rng);
  const std::uint64_t budget =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) / 64;
  std::uint64_t flips = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (shards == 0) {
      seg::SchellingModel model(params, spins);
      seg::Rng dyn(4);
      state.ResumeTiming();
      seg::RunOptions opt;
      opt.max_flips = budget;
      flips += seg::run_glauber(model, dyn, opt).flips;
    } else {
      seg::SchellingModel model(params, spins,
                                seg::ShardLayout::stripes(n, w, shards));
      state.ResumeTiming();
      seg::ParallelOptions opt;
      opt.threads = threads;
      opt.max_flips = budget;
      flips += seg::run_parallel_glauber(model, 4, opt).flips;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flips));
  state.counters["shards"] = shards;
}

void BM_GlauberSweep(benchmark::State& state) { glauber_sweep(state, 0); }
BENCHMARK(BM_GlauberSweep)
    ->ArgsProduct({{1024, 2048, 4096}, {0, 1, 2, 4, 8}})
    // Phase A runs on pool workers whose CPU time the main thread never
    // sees; wall-clock is the only honest basis for the flips/sec rate.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same sweeps at threads = 1, the path campaign replicas run: no
// pool, the calling thread runs the shards in order. Against the
// BM_GlauberSweep rows this separates the pool's handoff cost from the
// decomposition's own. One shard is left out: BM_GlauberSweep/<n>/1
// already runs on one worker.
void BM_GlauberSweepOneWorker(benchmark::State& state) {
  glauber_sweep(state, 1);
}
BENCHMARK(BM_GlauberSweepOneWorker)
    ->ArgsProduct({{1024, 2048, 4096}, {2, 4, 8}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Per-sweep observable recording: one sweep of flip activity (1024
// flip/flip-back pairs) followed by one measurement of the snapshot
// observables a trajectory panel wants — cluster statistics, interface
// energy, and the spatial pair correlation to r = 16. mode 0 recomputes
// them with the batch O(n^2) rescans (analysis/clusters.h +
// analysis/correlation.h) — the pre-streaming measurement path; mode 1
// reads them off the StreamingObservables engine fed by the engine's
// flip events. Both modes perform identical dynamics work, so the rate
// gap is purely the per-sweep recording cost; scripts/bench.sh records
// the ratio in BENCH_core.json (acceptance bar: >= 10x at n = 1024).
void BM_StreamingObservables(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool streaming_mode = state.range(1) != 0;
  constexpr int kMaxR = 16;
  seg::ModelParams params{.n = n, .w = 2, .tau = 0.45, .p = 0.5};
  seg::Rng rng(8);
  seg::SchellingModel model(params, rng);
  seg::StreamingConfig config;
  config.max_r = kMaxR;
  seg::StreamingObservables streaming(model.spins(), n, config);
  if (streaming_mode) model.set_flip_observer(&streaming);
  const auto sites = static_cast<std::uint32_t>(model.agent_count());
  std::uint32_t id = 0;
  constexpr int kPairsPerSweep = 1024;
  for (auto _ : state) {
    for (int i = 0; i < kPairsPerSweep; ++i) {
      model.flip(id);  // flip and flip back: state stays bounded
      model.flip(id);
      id = (id + 9973) % sites;
    }
    if (streaming_mode) {
      seg::ClusterStats stats = streaming.cluster_stats();
      benchmark::DoNotOptimize(stats);
      std::vector<double> corr = streaming.pair_correlation();
      benchmark::DoNotOptimize(corr);
    } else {
      seg::ClusterStats stats = seg::cluster_stats(model.spins(), n);
      benchmark::DoNotOptimize(stats);
      std::vector<double> corr =
          seg::pair_correlation(model.spins(), n, kMaxR);
      benchmark::DoNotOptimize(corr);
    }
  }
  state.SetItemsProcessed(state.iterations());  // items == recorded sweeps
  state.counters["streaming"] = streaming_mode ? 1 : 0;
}
BENCHMARK(BM_StreamingObservables)
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

// Fixed vs adaptive campaign scheduling on a synthetic variance-skewed
// grid: 16 points whose metric standard deviation ramps 0.02 -> 0.25
// (replicas are a single scaled SplitMix64 draw, so the run measures the
// engine, not the model), per-point cap 3072 replicas. Arg 0 runs the
// fixed-replica engine (every point burns the full cap); arg 1 runs the
// empirical-Bernstein stopper at delta = 0.05, which resolves the
// low-variance points an order of magnitude earlier. The "replicas"
// counter records how many replicas each mode actually scheduled;
// scripts/bench.sh turns the pair into context.adaptive_savings
// (acceptance bar: >= 30% of the cap saved at equal certified CI width —
// tests/test_campaign_adaptive.cc pins the same grid).
void BM_AdaptiveCampaign(benchmark::State& state) {
  const bool adaptive = state.range(0) != 0;
  constexpr std::size_t kPoints = 16;
  std::vector<double> sigmas;
  for (std::size_t i = 0; i < kPoints; ++i) {
    sigmas.push_back(0.02 + (0.25 - 0.02) * static_cast<double>(i) /
                                static_cast<double>(kPoints - 1));
  }
  seg::ScenarioSpec spec;
  spec.name = "bench_adaptive";
  spec.n = {8};
  spec.w = {1};
  spec.tau.clear();
  for (std::size_t i = 0; i < kPoints; ++i) {
    spec.tau.push_back(0.30 + 0.01 * static_cast<double>(i));
  }
  spec.replicas = 3072;
  spec.metrics = {"flips"};
  if (adaptive) {
    spec.stop.rule = seg::StopRule::kBernstein;
    spec.stop.delta = 0.05;
    spec.stop.alpha = 0.05;
    spec.stop.min_replicas = 16;
  }
  const auto points = seg::expand_grid(spec);
  const seg::ReplicaFn replica = [&sigmas](const seg::ScenarioPoint& point,
                                           std::size_t /*replica*/,
                                           std::uint64_t replica_seed) {
    seg::SplitMix64 rng(replica_seed);
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    const double sigma = sigmas[point.index % sigmas.size()];
    return std::vector<double>{0.5 + sigma * std::sqrt(3.0) * (2.0 * u - 1.0)};
  };
  seg::CampaignOptions options;
  options.threads = 4;
  std::size_t replicas_done = 0;
  for (auto _ : state) {
    const seg::CampaignResult result =
        run_campaign(spec, points, {"value"}, replica, 2024, options);
    replicas_done = result.replicas_done;
    benchmark::DoNotOptimize(replicas_done);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * replicas_done));
  state.counters["replicas"] = static_cast<double>(replicas_done);
  state.counters["adaptive"] = adaptive ? 1 : 0;
}
BENCHMARK(BM_AdaptiveCampaign)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BoxSum(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int w = static_cast<int>(state.range(1));
  seg::Rng rng(5);
  std::vector<std::int32_t> values(static_cast<std::size_t>(n) * n);
  for (auto& v : values) v = static_cast<std::int32_t>(rng.uniform_below(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(seg::box_sum_torus(values, n, w));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BoxSum)->Args({512, 10})->Args({1024, 10});

void BM_DistanceTransform(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  seg::Rng rng(6);
  std::vector<std::int8_t> spins(static_cast<std::size_t>(n) * n);
  for (auto& s : spins) s = rng.bernoulli(0.5) ? 1 : -1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seg::mono_ball_radius(spins, n));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_DistanceTransform)->Arg(256)->Arg(512);

// What a phase_diagram replica pays for E[M]: the radius field plus 16
// sampled queries. Second arg picks the field: 0 = random p = 0.5, 1 =
// Glauber-evolved (w = 2, tau = 0.45) segregated, 2 = fully monochromatic
// (every query returns at once), 3 = one minority site, the query's worst
// case: top sits at the (n-1)/2 cap while most samples sit below it and
// scan far before they meet a ball of radius top.
void BM_MeanMonoRegion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int field_kind = static_cast<int>(state.range(1));
  seg::Rng rng(8);
  std::vector<std::int8_t> spins(static_cast<std::size_t>(n) * n, 1);
  if (field_kind == 0) {
    for (auto& s : spins) s = rng.bernoulli(0.5) ? 1 : -1;
  } else if (field_kind == 1) {
    seg::SchellingModel model({.n = n, .w = 2, .tau = 0.45, .p = 0.5}, rng);
    seg::run_glauber(model, rng);
    spins = model.spins();
  } else if (field_kind == 3) {
    spins[static_cast<std::size_t>(n / 2) * n + n / 3] = -1;
  }
  state.SetLabel(field_kind == 0   ? "random"
                 : field_kind == 1 ? "segregated"
                 : field_kind == 2 ? "uniform"
                                   : "single minority");
  for (auto _ : state) {
    const seg::MonoRegionField field = seg::mono_region_field(spins, n);
    seg::Rng sample(9);
    benchmark::DoNotOptimize(seg::mean_mono_region_size(field, 16, sample));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_MeanMonoRegion)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 3});

// The M' field of region_size replicas: a Glauber-evolved state at the
// builtin's side n = max(64, 24w), tau = 0.45, p = 0.5, thresholded at
// eps = 0.1 and fed the mono field that M has already built, as the
// campaign's metric context does, then E[M'] over the builtin's 24
// samples. w = 1..5 takes the largest allowed minority from about 0.29 of
// a ball down to none.
void BM_AlmostMonoField(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int n = std::max(64, 24 * w);
  seg::Rng rng(8);
  seg::SchellingModel model({.n = n, .w = w, .tau = 0.45, .p = 0.5}, rng);
  seg::run_glauber(model, rng);
  const std::vector<std::int8_t> spins = model.spins();
  const seg::MonoRegionField mono = seg::mono_region_field(spins, n);
  const double threshold =
      seg::almost_mono_threshold(0.1, model.neighborhood_size());
  for (auto _ : state) {
    const seg::AlmostMonoField field =
        seg::almost_mono_field(spins, mono, threshold);
    seg::Rng sample(9);
    benchmark::DoNotOptimize(seg::mean_almost_region_size(field, 24, sample));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_AlmostMonoField)->DenseRange(1, 5)->Unit(benchmark::kMicrosecond);

void BM_PrefixSumBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  seg::Rng rng(7);
  std::vector<std::int32_t> values(static_cast<std::size_t>(n) * n);
  for (auto& v : values) v = static_cast<std::int32_t>(rng.uniform_below(2));
  for (auto _ : state) {
    const seg::PrefixSum2D prefix(values, n);
    benchmark::DoNotOptimize(prefix.total());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_PrefixSumBuild)->Arg(256)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
