// Differential battery for the streaming observables engine
// (analysis/streaming.h): after EVERY mutation of a fuzzed sequence, each
// streaming observable must equal the batch recompute — cluster counts,
// largest cluster, and interface bitwise (analysis/clusters.h), the
// spatial pair correlation bitwise against analysis/correlation.h (both
// sides are exact integer arithmetic underneath), and the magnetization
// time-autocovariance bitwise against the batch autocovariance()
// reference. Mutation sources cover every model policy's alphabet and
// event path:
//
//  * SchellingModel (dense Moore + sparse von Neumann asymmetric, and
//    the comfort cap) through the engine FlipObserver hook,
//  * Kawasaki swap dynamics through the observer — including the
//    tentative flip/revert probes of swap_improves(),
//  * vacancy ({-1, 0, +1}) and multi-type ({0..q-1}) alphabets through
//    apply_set(),
//  * the PR 2 golden-trajectory Glauber fixture (streaming must not
//    perturb the trajectory: the golden hash is re-asserted).
#include <vector>

#include <gtest/gtest.h>

#include "analysis/clusters.h"
#include "analysis/correlation.h"
#include "analysis/streaming.h"
#include "core/dynamics.h"
#include "core/kawasaki.h"
#include "core/model.h"
#include "golden_fixtures.h"
#include "rng/rng.h"

namespace seg {
namespace {

constexpr int kFuzzSteps = 1000;

// Asserts every streaming observable against its batch recompute.
void expect_matches_batch(const StreamingObservables& obs,
                          const char* what, int step) {
  const int n = obs.side();
  const ClusterStats batch = cluster_stats(obs.field(), n);
  const ClusterStats streamed = obs.cluster_stats();
  ASSERT_EQ(streamed.cluster_count, batch.cluster_count)
      << what << " step " << step;
  ASSERT_EQ(streamed.largest_cluster, batch.largest_cluster)
      << what << " step " << step;
  ASSERT_EQ(streamed.interface_length, batch.interface_length)
      << what << " step " << step;
  ASSERT_DOUBLE_EQ(streamed.mean_cluster_size, batch.mean_cluster_size)
      << what << " step " << step;

  std::int64_t sum = 0;
  std::int64_t plus = 0;
  std::int64_t zero = 0;
  for (const std::int8_t v : obs.field()) {
    sum += v;
    plus += v == 1;
    zero += v == 0;
  }
  ASSERT_EQ(obs.magnetization(), sum) << what << " step " << step;
  ASSERT_EQ(obs.count_of(1), plus) << what << " step " << step;
  ASSERT_EQ(obs.vacancy_count(), zero) << what << " step " << step;

  if (obs.max_r() > 0) {
    const std::vector<double> batch_c =
        pair_correlation(obs.field(), n, obs.max_r());
    const std::vector<double> streamed_c = obs.pair_correlation();
    ASSERT_EQ(batch_c.size(), streamed_c.size());
    for (std::size_t r = 0; r < batch_c.size(); ++r) {
      // Integer accumulators on both sides: bitwise equality, which is
      // stronger than the 1e-12 relative bar.
      ASSERT_EQ(batch_c[r], streamed_c[r])
          << what << " step " << step << " r " << r;
    }
  }
}

TEST(StreamingDifferential, SchellingEngineObserverFuzz) {
  struct Config {
    ModelParams params;
    std::uint64_t seed;
    const char* what;
  };
  const Config configs[] = {
      {{.n = 32, .w = 2, .tau = 0.45, .p = 0.5}, 41001, "moore"},
      {{.n = 24, .w = 3, .tau = 0.4, .p = 0.5, .tau_minus = 0.6,
        .shape = NeighborhoodShape::kVonNeumann},
       41002,
       "von_neumann_asym"},
  };
  for (const Config& config : configs) {
    Rng rng(config.seed);
    SchellingModel model(config.params, rng);
    StreamingConfig cfg;
    cfg.max_r = 6;
    StreamingObservables obs(model.spins(), config.params.n, cfg);
    model.set_flip_observer(&obs);
    for (int step = 0; step < kFuzzSteps; ++step) {
      model.flip(static_cast<std::uint32_t>(
          rng.uniform_below(model.agent_count())));
      ASSERT_EQ(obs.field(), model.spins()) << config.what << " " << step;
      expect_matches_batch(obs, config.what, step);
    }
  }
}

TEST(StreamingDifferential, ComfortEngineObserverFuzz) {
  const ModelParams params{
      .n = 24, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.8};
  Rng rng(42001);
  SchellingModel model(params, rng);
  StreamingConfig cfg;
  cfg.max_r = 5;
  StreamingObservables obs(model.spins(), params.n, cfg);
  model.set_flip_observer(&obs);
  for (int step = 0; step < kFuzzSteps; ++step) {
    model.flip(static_cast<std::uint32_t>(
        rng.uniform_below(model.agent_count())));
    ASSERT_EQ(obs.field(), model.spins()) << step;
    expect_matches_batch(obs, "comfort", step);
  }
}

TEST(StreamingDifferential, VacancyAlphabetFuzz) {
  const int n = 24;
  Rng rng(43001);
  std::vector<std::int8_t> field(static_cast<std::size_t>(n) * n);
  for (auto& v : field) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_below(3)) - 1);
  }
  StreamingConfig cfg;
  cfg.max_r = 6;
  StreamingObservables obs(field, n, cfg);
  for (int step = 0; step < kFuzzSteps; ++step) {
    const auto id =
        static_cast<std::uint32_t>(rng.uniform_below(field.size()));
    const auto value = static_cast<std::int8_t>(
        static_cast<int>(rng.uniform_below(3)) - 1);
    obs.apply_set(id, value);  // no-op half the time: also covered
    expect_matches_batch(obs, "vacancy", step);
  }
}

TEST(StreamingDifferential, MultiTypeAlphabetFuzz) {
  const int n = 20;
  constexpr int kTypes = 4;
  Rng rng(44001);
  std::vector<std::int8_t> field(static_cast<std::size_t>(n) * n);
  for (auto& v : field) {
    v = static_cast<std::int8_t>(rng.uniform_below(kTypes));
  }
  // Multi-type values are labels, not spins: the spin-style aggregates
  // are meaningless but must still track exactly; clusters/interface are
  // the real observables here.
  StreamingObservables obs(field, n);
  for (int step = 0; step < kFuzzSteps; ++step) {
    const auto id =
        static_cast<std::uint32_t>(rng.uniform_below(field.size()));
    obs.apply_set(id,
                  static_cast<std::int8_t>(rng.uniform_below(kTypes)));
    expect_matches_batch(obs, "multitype", step);
  }
}

// Kawasaki dynamics drives the engine through swap_improves(), whose
// tentative flip + revert probes also fire the observer; the streaming
// state must come back exactly after every revert.
TEST(StreamingDifferential, KawasakiObserverIncludingTentativeProbes) {
  ModelParams params{.n = 32, .w = 2, .tau = 0.4, .p = 0.5};
  Rng init(45001);
  SchellingModel model(params, init);
  StreamingObservables obs(model.spins(), params.n);
  model.set_flip_observer(&obs);
  Rng dyn(45002);
  KawasakiOptions options;
  options.max_swaps = 400;
  const KawasakiResult result = run_kawasaki(model, dyn, options);
  EXPECT_GT(result.proposals, result.swaps);
  ASSERT_EQ(obs.field(), model.spins());
  expect_matches_batch(obs, "kawasaki", static_cast<int>(result.swaps));

  // The observer consumed no RNG and perturbed nothing: a twin run
  // without it lands on the identical configuration.
  Rng init2(45001);
  SchellingModel twin(params, init2);
  Rng dyn2(45002);
  run_kawasaki(twin, dyn2, options);
  EXPECT_EQ(twin.spins(), model.spins());
}

// PR 2 golden fixture: attaching the streaming engine must not perturb
// the trajectory (hash from tests/test_golden_trajectory.cc), and the
// final streaming state must equal batch.
TEST(StreamingDifferential, GoldenGlauberFixtureUnperturbed) {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1001, 0);
  SchellingModel m(p, init);
  StreamingConfig cfg;
  cfg.max_r = 8;
  cfg.autocorr_window = 32;
  StreamingObservables obs(m.spins(), p.n, cfg);
  m.set_flip_observer(&obs);
  Rng dyn = Rng::stream(1001, 1);
  const RunResult r = run_glauber(m, dyn);
  EXPECT_TRUE(r.terminated);

  std::uint64_t h = golden::hash_bytes(m.spins().data(), m.spins().size());
  h = golden::mix(h, r.flips);
  h = golden::mix_double(h, r.final_time);
  EXPECT_EQ(h, golden::kGlauber);

  ASSERT_EQ(obs.field(), m.spins());
  expect_matches_batch(obs, "golden", static_cast<int>(r.flips));
}

// The ring-buffer time autocovariance must match the batch reference on
// the recorded magnetization series, bitwise, at every prefix length —
// including prefixes shorter and longer than the window.
TEST(StreamingDifferential, AutocovarianceMatchesBatchReference) {
  const int n = 24;
  constexpr std::size_t kWindow = 12;
  Rng rng(47001);
  std::vector<std::int8_t> field(static_cast<std::size_t>(n) * n);
  for (auto& v : field) v = rng.bernoulli(0.5) ? 1 : -1;
  StreamingConfig cfg;
  cfg.autocorr_window = kWindow;
  StreamingObservables obs(field, n, cfg);
  std::vector<std::int64_t> series;
  for (int step = 0; step < 200; ++step) {
    for (int f = 0; f < 5; ++f) {
      obs.apply_flip(static_cast<std::uint32_t>(
          rng.uniform_below(field.size())));
    }
    obs.record_sample();
    series.push_back(obs.magnetization());
    const std::size_t max_lag =
        std::min(series.size() - 1, kWindow - 1);
    const std::vector<double> batch = autocovariance(series, max_lag);
    for (std::size_t lag = 0; lag <= max_lag; ++lag) {
      ASSERT_EQ(batch[lag], obs.autocovariance(lag))
          << "step " << step << " lag " << lag;
    }
    if (obs.autocovariance(0) != 0.0) {
      ASSERT_DOUBLE_EQ(obs.autocorrelation(1),
                       obs.autocovariance(1) / obs.autocovariance(0));
    }
  }
  EXPECT_EQ(obs.samples_recorded(), series.size());
}

// Out-of-range lags and the empty stream are well-defined zeros.
TEST(StreamingDifferential, AutocovarianceEdgeLags) {
  StreamingConfig cfg;
  cfg.autocorr_window = 4;
  std::vector<std::int8_t> field(16, 1);
  StreamingObservables obs(field, 4, cfg);
  EXPECT_EQ(obs.autocovariance(0), 0.0);  // no samples yet
  obs.record_sample();
  EXPECT_EQ(obs.autocovariance(1), 0.0);  // lag >= sample count
  for (int i = 0; i < 10; ++i) obs.record_sample();
  EXPECT_EQ(obs.autocovariance(4), 0.0);  // lag >= window
  EXPECT_EQ(obs.autocovariance(0), 0.0);  // constant series
}

}  // namespace
}  // namespace seg
