// STATIC — the static regime: Barmpalias et al. [26] prove that for
// tau < 1/4 (and tau > 3/4) the initial configuration remains static
// w.h.p.; the paper's Fig. 2 regime map leaves [1/4, tau_2] unknown. We
// measure the number of flips and the fraction of agents that ever change
// type across the whole tau range, exhibiting the static -> cascading
// transition.
#include <cstdio>

#include "core/dynamics.h"
#include "core/model.h"
#include "io/table.h"
#include "theory/bounds.h"
#include "theory/constants.h"
#include "util/args.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int n = static_cast<int>(args.get_int("n", 96));
  const int w = static_cast<int>(args.get_int("w", 3));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 9));
  if (!args.check_usage({"n", "w", "trials", "seed"})) return 1;
  const int N = (2 * w + 1) * (2 * w + 1);

  std::printf("== Static vs cascading regimes across tau (w=%d, N=%d, "
              "n=%d) ==\n",
              w, N, n);
  std::printf("boundaries: 1/4 (static below, Barmpalias et al.), tau_2 = "
              "%.5f, tau_1 = %.4f\n\n",
              seg::tau2(), seg::tau1());

  seg::TablePrinter table({"tau", "P(unhappy) t=0", "mean_flips",
                           "flips/n^2", "changed_frac", "verdict"});
  for (const double tau : {0.15, 0.20, 0.24, 0.28, 0.32, 0.3438, 0.36,
                           0.40, 0.4334, 0.46, 0.49}) {
    seg::RunningStats flips, changed;
    for (std::size_t t = 0; t < trials; ++t) {
      seg::ModelParams params{.n = n, .w = w, .tau = tau, .p = 0.5};
      seg::Rng init = seg::Rng::stream(seed + t, 0);
      seg::SchellingModel model(params, init);
      const auto spins0 = model.spins();
      seg::Rng dyn = seg::Rng::stream(seed + t, 1);
      flips.add(static_cast<double>(seg::run_glauber(model, dyn).flips));
      const auto spins1 = model.spins();
      std::size_t diff = 0;
      for (std::size_t i = 0; i < spins0.size(); ++i) {
        diff += spins0[i] != spins1[i];
      }
      changed.add(static_cast<double>(diff) /
                  static_cast<double>(spins0.size()));
    }
    const double per_site =
        flips.mean() / (static_cast<double>(n) * static_cast<double>(n));
    const char* verdict = per_site < 0.01   ? "static"
                          : per_site < 0.25 ? "sparse flips"
                                            : "cascading";
    table.new_row()
        .add(tau, 4)
        .add(seg::unhappy_probability_exact(tau, N), 6)
        .add(flips.mean(), 1)
        .add(per_site, 4)
        .add(changed.mean(), 4)
        .add(verdict);
  }
  table.print();

  std::printf("\nexpected shape: static for tau < 1/4, transition through "
              "[1/4, tau_2], cascading above tau_2.\n");
  return 0;
}
