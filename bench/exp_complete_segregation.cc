// NOSEG / FONTES — two complementary fixation experiments.
//
// (A) Corollary of Theorems 1-2: at p = 1/2 complete segregation (one
//     type covering the whole grid) does NOT occur w.h.p. for the tau
//     range considered — the exponential *upper* bound on E[M] forbids it.
// (B) Contrast (Fontes et al. [27] / Morris [28]): at tau = 1/2 there is a
//     critical initial density p* < 1 above which the dynamics fixate on
//     the all-majority state. We sweep p at tau = 1/2 and locate the
//     finite-size fixation threshold.
#include <cstdint>
#include <cstdio>

#include "analysis/clusters.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "core/parallel_dynamics.h"
#include "io/table.h"
#include "lattice/sharded.h"
#include "rng/splitmix64.h"
#include "util/args.h"
#include "util/stats.h"

namespace {

struct FixationResult {
  double complete_fraction = 0.0;
  double majority_fraction_mean = 0.0;
};

// shards == 1 runs the serial engine (bitwise the legacy trajectories);
// shards > 1 runs each trial through the sharded sweep engine
// (core/parallel_dynamics.h), which makes n >= 1024 sweeps practical.
FixationResult measure(int n, int w, double tau, double p,
                       std::size_t trials, std::uint64_t seed, int shards) {
  FixationResult out;
  seg::RunningStats majority;
  std::size_t complete = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    seg::ModelParams params{.n = n, .w = w, .tau = tau, .p = p};
    seg::Rng init = seg::Rng::stream(seed + t, 0);
    if (shards > 1) {
      seg::SchellingModel model(params, init,
                                seg::ShardLayout::stripes(n, w, shards));
      // Per-shard substreams derive from the dynamics stream's seed, so
      // they stay disjoint from the init stream above.
      seg::run_parallel_glauber(model, seg::mix_seed(seed + t, 1));
      complete += seg::completely_segregated(model.spins());
      majority.add(seg::majority_fraction(model.spins()));
      continue;
    }
    seg::SchellingModel model(params, init);
    seg::Rng dyn = seg::Rng::stream(seed + t, 1);
    seg::run_glauber(model, dyn);
    complete += seg::completely_segregated(model.spins());
    majority.add(seg::majority_fraction(model.spins()));
  }
  out.complete_fraction =
      static_cast<double>(complete) / static_cast<double>(trials);
  out.majority_fraction_mean = majority.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int n = static_cast<int>(args.get_int("n", 64));
  const int w = static_cast<int>(args.get_int("w", 2));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 21));
  const std::int64_t shards_arg = args.get_int("shards", 1);
  if (!args.check_usage({"n", "w", "trials", "seed", "shards"})) return 1;
  // One stripe per row at most: a larger count would be clamped.
  if (shards_arg < 1 || shards_arg > n) {
    std::fprintf(stderr, "--shards %lld: need 1 <= --shards <= --n (%d)\n",
                 static_cast<long long>(shards_arg), n);
    return 1;
  }
  const int shards = static_cast<int>(shards_arg);

  std::printf("== (A) No complete segregation at p = 1/2 (corollary of the "
              "exponential upper bound) ==\n");
  std::printf("(n=%d, w=%d, %zu trials per tau)\n\n", n, w, trials);
  seg::TablePrinter a({"tau", "P(complete)", "mean majority fraction"});
  for (const double tau : {0.36, 0.40, 0.45, 0.48, 0.55, 0.60}) {
    const auto r = measure(n, w, tau, 0.5, trials, seed, shards);
    a.new_row()
        .add(tau, 2)
        .add(r.complete_fraction, 3)
        .add(r.majority_fraction_mean, 4);
  }
  a.print();
  std::printf("expected: P(complete) = 0 throughout (paper: \"complete "
              "segregation ... does not occur w.h.p.\").\n\n");

  std::printf("== (B) Fixation at tau = 1/2 as p grows (Fontes et al.: "
              "p* < 1) ==\n\n");
  seg::TablePrinter b({"p", "P(complete)", "mean majority fraction"});
  double p_star_estimate = -1.0;
  for (const double p : {0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95}) {
    const auto r = measure(n, w, 0.5, p, trials, seed + 1000, shards);
    if (p_star_estimate < 0 && r.complete_fraction >= 0.5) {
      p_star_estimate = p;
    }
    b.new_row()
        .add(p, 2)
        .add(r.complete_fraction, 3)
        .add(r.majority_fraction_mean, 4);
  }
  b.print();
  if (p_star_estimate > 0) {
    std::printf("finite-size fixation threshold (first p with >= 50%% "
                "fixation): ~%.2f — consistent with 1/2 < p* < 1.\n",
                p_star_estimate);
  } else {
    std::printf("no majority fixation observed up to p = 0.95 at this "
                "size; increase --n or --trials.\n");
  }
  return 0;
}
