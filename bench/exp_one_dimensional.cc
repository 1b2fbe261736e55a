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
//
// The ring is GraphTopology::ring(n, w) on the shared SchellingModel
// engine, one topology per (ring, w) reused across tau values and trials.
// Glauber runs use run_discrete: only the jump chain matters for final
// configurations, and for tau <= 1/2 with an odd window size N = 2w+1
// every unhappy agent is flippable (paper Sec. II-A): it has s < K =
// ceil(tau N) <= (N+1)/2 same-type agents, and N - s + 1 >= (N+3)/2 > K
// after the flip. So a uniform unhappy agent is a uniform flippable one,
// every step flips, and run_glauber would only add an Exp(|flippable|)
// holding time per flip.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/clusters.h"
#include "core/dynamics.h"
#include "core/kawasaki.h"
#include "graph/topology.h"
#include "io/table.h"
#include "util/args.h"
#include "util/stats.h"

namespace {

using Ring = std::shared_ptr<const seg::GraphTopology>;

// Widest window of the tau x w table, and of the Kawasaki duel (which
// runs on a ring a quarter the size).
constexpr int kTableMaxW = 12;
constexpr int kDuelMaxW = 8;

Ring make_ring(int n, int w) {
  return std::make_shared<const seg::GraphTopology>(
      seg::GraphTopology::ring(n, w));
}

double mean_run_length(const seg::SchellingModel& model) {
  return static_cast<double>(model.agent_count()) /
         static_cast<double>(seg::run_lengths(model.spins()).size());
}

double glauber_mean_run_length(const Ring& ring, double tau,
                               std::size_t trials, std::uint64_t seed) {
  seg::RunningStats stats;
  const seg::ModelParams params{.tau = tau, .p = 0.5};
  for (std::size_t t = 0; t < trials; ++t) {
    seg::Rng init = seg::Rng::stream(seed + t, 0);
    seg::SchellingModel model(params, ring, init);
    seg::Rng dyn = seg::Rng::stream(seed + t, 1);
    seg::run_discrete(model, dyn);
    stats.add(mean_run_length(model));
  }
  return stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const std::int64_t ring_arg = args.get_int("ring", 1 << 14);
  const std::int64_t trials_arg = args.get_int("trials", 3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 13));
  if (!args.check_usage({"ring", "trials", "seed"})) return 1;
  if (trials_arg < 1) {
    std::fprintf(stderr, "--trials %lld: need at least 1 trial\n",
                 static_cast<long long>(trials_arg));
    return 1;
  }
  if (ring_arg < 2 * kTableMaxW + 1 || ring_arg / 4 < 2 * kDuelMaxW + 1 ||
      ring_arg > (1 << 30)) {
    std::fprintf(stderr,
                 "--ring %lld: need ring >= %d (2w+1 at the table's w = %d) "
                 "and ring/4 >= %d (2w+1 at the Kawasaki duel's w = %d), "
                 "i.e. --ring >= %d, and at most 2^30\n",
                 static_cast<long long>(ring_arg), 2 * kTableMaxW + 1,
                 kTableMaxW, 2 * kDuelMaxW + 1, kDuelMaxW,
                 4 * (2 * kDuelMaxW + 1));
    return 1;
  }
  const int ring = static_cast<int>(ring_arg);
  const auto trials = static_cast<std::size_t>(trials_arg);
  const std::vector<int> ws{2, 4, 6, 8, 10, kTableMaxW};

  std::printf("== 1-D ring baseline: mean run length vs w (ring = %d, %zu "
              "trials) ==\n\n",
              ring, trials);

  std::vector<Ring> rings;
  for (const int w : ws) rings.push_back(make_ring(ring, w));
  seg::TablePrinter table({"tau", "w=2", "w=4", "w=6", "w=8", "w=10",
                           "w=12", "log2-fit slope", "regime"});
  for (const double tau : {0.30, 0.40, 0.45, 0.50}) {
    std::vector<double> xs, logs;
    table.new_row().add(tau, 2);
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const double len = glauber_mean_run_length(rings[i], tau, trials,
                                                  seed + 1000 * ws[i]);
      table.add(len, 1);
      xs.push_back(ws[i]);
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
  const seg::ModelParams params{.tau = 0.5, .p = 0.5};
  for (const int w : {2, 4, kDuelMaxW}) {
    const Ring quarter = make_ring(ring / 4, w);
    seg::RunningStats glauber_len, kawasaki_len;
    for (std::size_t t = 0; t < trials; ++t) {
      seg::Rng init = seg::Rng::stream(seed + 5000 + t, w);
      seg::SchellingModel g(params, quarter, init);
      seg::SchellingModel k(params, quarter, g.spins());
      seg::Rng dg = seg::Rng::stream(seed + 6000 + t, w);
      seg::run_discrete(g, dg);
      glauber_len.add(mean_run_length(g));
      seg::Rng dk = seg::Rng::stream(seed + 7000 + t, w);
      seg::KawasakiOptions opt;
      opt.max_swaps = 200000;
      seg::run_kawasaki(k, dk, opt);
      kawasaki_len.add(mean_run_length(k));
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
