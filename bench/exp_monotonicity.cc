// MONO — the paper's qualitative claim (Sec. I-B, Fig. 3): as the
// intolerance gets farther from one half, the *expected exponent* of the
// segregated-region size grows — "higher tolerance does not necessarily
// lead to less segregation".
//
// We measure E[M] and E[M'] across tau at fixed w and print the measured
// curve next to the theoretical envelope a(tau). Note the scales at which
// each statement lives: the theorem's monotonicity concerns the asymptotic
// exponent; at laptop-scale N the measured E[M] is dominated by coarsening
// activity (more flips near 1/2), so the finite-N curve can run opposite
// to the asymptotic envelope. Both are printed; EXPERIMENTS.md discusses
// the reconciliation.
#include <cstdio>

#include "analysis/almost.h"
#include "analysis/regions.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "io/table.h"
#include "theory/exponents.h"
#include "util/args.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int w = static_cast<int>(args.get_int("w", 3));
  const int n = static_cast<int>(args.get_int("n", 96));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  if (!args.check_usage({"w", "n", "trials", "seed"})) return 1;
  const int N = (2 * w + 1) * (2 * w + 1);

  std::printf("== Monotonicity in tau: measured E[M], E[M'] vs the "
              "asymptotic envelope ==\n");
  std::printf("(w=%d, N=%d, n=%d, %zu trials per tau; both sides of "
              "1/2)\n\n",
              w, N, n, trials);

  seg::TablePrinter table({"tau", "K", "mean_flips", "E[M]", "E[M']",
                           "a(tau) envelope"});
  for (const double tau : {0.36, 0.38, 0.40, 0.42, 0.44, 0.46, 0.48, 0.52,
                           0.54, 0.56, 0.58, 0.60, 0.62, 0.64}) {
    seg::RunningStats flips, em, emp;
    for (std::size_t t = 0; t < trials; ++t) {
      seg::ModelParams params{.n = n, .w = w, .tau = tau, .p = 0.5};
      seg::Rng init = seg::Rng::stream(seed + t, 0);
      seg::SchellingModel model(params, init);
      seg::Rng dyn = seg::Rng::stream(seed + t, 1);
      flips.add(static_cast<double>(seg::run_glauber(model, dyn).flips));
      const auto mono = seg::mono_region_field(model);
      seg::Rng s1 = seg::Rng::stream(seed + t, 2);
      em.add(seg::mean_mono_region_size(mono, 24, s1));
      const auto almost = seg::almost_mono_field(model, 0.1);
      seg::Rng s2 = seg::Rng::stream(seed + t, 2);
      emp.add(seg::mean_almost_region_size(almost, 24, s2));
    }
    seg::ModelParams probe{.n = n, .w = w, .tau = tau, .p = 0.5};
    table.new_row()
        .add(tau, 2)
        .add(static_cast<std::int64_t>(probe.happy_threshold()))
        .add(flips.mean(), 0)
        .add(em.mean(), 1)
        .add(emp.mean(), 1)
        .add(seg::a_exponent_envelope(tau), 5);
  }
  table.print();

  std::printf("\nasymptotic claim (theorems): a(tau), b(tau) increase away "
              "from 1/2 — see fig3_exponents.\n");
  std::printf("finite-N observation: activity (flips) and measured E[M] "
              "peak toward 1/2; the asymptotic\n");
  std::printf("monotonicity is a statement about exponents, visible only "
              "as N grows (exp_region_size).\n");
  return 0;
}
