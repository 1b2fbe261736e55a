// 1D — the one-dimensional baselines the paper's background builds on
// (Sec. I-B): on a ring, Brandt et al. [23] show polynomial (in the
// neighborhood size) run lengths at tau = 1/2, and Barmpalias et al. [24]
// show a static phase for tau below ~0.35 and exponential run lengths for
// 0.35 < tau < 1/2 (Glauber, symmetric about 1/2).
//
// We run the ring Glauber dynamics across (tau, w) and fit the growth of
// the mean run length in the window size 2w+1: near-linear log2(length) in
// w indicates the exponential phase; a flat, small length indicates the
// static phase; tau = 1/2 grows only polynomially.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core1d/ring_kawasaki.h"
#include "core1d/ring_model.h"
#include "io/table.h"
#include "util/args.h"
#include "util/stats.h"

namespace {

double mean_run_length(int ring, int w, double tau, std::size_t trials,
                       std::uint64_t seed) {
  seg::RunningStats stats;
  for (std::size_t t = 0; t < trials; ++t) {
    seg::RingParams params{.n = ring, .w = w, .tau = tau, .p = 0.5};
    seg::Rng init = seg::Rng::stream(seed + t, 0);
    seg::RingModel model(params, init);
    seg::Rng dyn = seg::Rng::stream(seed + t, 1);
    model.run_glauber(dyn);
    stats.add(model.mean_run_length());
  }
  return stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int ring = static_cast<int>(args.get_int("ring", 1 << 14));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 13));
  if (!args.check_usage({"ring", "trials", "seed"})) return 1;
  const std::vector<int> ws{2, 4, 6, 8, 10, 12};

  std::printf("== 1-D ring baseline: mean run length vs w (ring = %d, %zu "
              "trials) ==\n\n",
              ring, trials);

  seg::TablePrinter table({"tau", "w=2", "w=4", "w=6", "w=8", "w=10",
                           "w=12", "log2-fit slope", "regime"});
  for (const double tau : {0.30, 0.40, 0.45, 0.50}) {
    std::vector<double> xs, logs;
    table.new_row().add(tau, 2);
    for (const int w : ws) {
      const double len =
          mean_run_length(ring, w, tau, trials, seed + 1000 * w);
      table.add(len, 1);
      xs.push_back(w);
      logs.push_back(std::log2(len));
    }
    const seg::LinearFit fit = seg::fit_line(xs, logs);
    table.add(fit.slope, 3);
    const char* regime = tau < 0.35   ? "static (expected flat)"
                         : tau < 0.5  ? "exponential (expected growth)"
                                      : "tau=1/2 (expected poly)";
    table.add(regime);
  }
  table.print();

  std::printf("\nexpected ordering of the log2-fit slopes: "
              "tau=0.30 < tau=0.50 < tau in (0.35, 0.5).\n");
  std::printf("(the paper's 2-D theorems generalize exactly this "
              "transition structure.)\n\n");

  // Kawasaki (closed) vs Glauber (open) at tau = 1/2 — Brandt et al.'s
  // setting. Kawasaki conserves the type counts and produces the
  // polynomial run lengths of [23].
  std::printf("== Kawasaki vs Glauber at tau = 1/2 (ring = %d) ==\n\n",
              ring / 4);
  seg::TablePrinter duel({"w", "glauber mean run", "kawasaki mean run"});
  for (const int w : {2, 4, 8}) {
    seg::RunningStats glauber_len, kawasaki_len;
    for (std::size_t t = 0; t < trials; ++t) {
      seg::RingParams params{.n = ring / 4, .w = w, .tau = 0.5, .p = 0.5};
      seg::Rng init = seg::Rng::stream(seed + 5000 + t, w);
      seg::RingModel g(params, init);
      seg::RingModel k(params, g.spins());
      seg::Rng dg = seg::Rng::stream(seed + 6000 + t, w);
      g.run_glauber(dg);
      glauber_len.add(g.mean_run_length());
      seg::Rng dk = seg::Rng::stream(seed + 7000 + t, w);
      seg::RingKawasakiOptions opt;
      opt.max_swaps = 200000;
      seg::run_ring_kawasaki(k, dk, opt);
      kawasaki_len.add(k.mean_run_length());
    }
    duel.new_row()
        .add(static_cast<std::int64_t>(w))
        .add(glauber_len.mean(), 1)
        .add(kawasaki_len.mean(), 1);
  }
  duel.print();
  std::printf("expected: both grow with w; Kawasaki (closed system, "
              "poly-in-w theory) stays at or below open-system Glauber.\n");
  return 0;
}
