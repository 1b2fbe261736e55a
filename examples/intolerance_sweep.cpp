// Sweeps the intolerance tau across the paper's interval and writes a CSV
// of segregation statistics — the "more tolerance can mean more
// segregation" exploration the paper's introduction motivates.
//
//   ./intolerance_sweep --n 96 --w 3 --trials 4 --out sweep.csv
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/clusters.h"
#include "analysis/regions.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "io/csv.h"
#include "theory/constants.h"
#include "util/args.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int n = static_cast<int>(args.get_int("n", 96));
  const int w = static_cast<int>(args.get_int("w", 3));
  const std::size_t trials = args.get_u64("trials", 4);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::string out = args.get_string("out", "sweep.csv");
  if (!args.check_usage({"n", "w", "trials", "seed", "out"})) return 1;
  if (!seg::ModelParams{.n = n, .w = w}.valid() || trials == 0) {
    std::fprintf(stderr, "invalid parameters\n");
    return 1;
  }

  std::printf("tau sweep on %dx%d torus, w=%d, %zu trials per tau\n", n, n, w,
              trials);
  std::printf("paper constants: tau2=%.5f tau1=%.5f\n", seg::tau2(),
              seg::tau1());

  seg::CsvWriter csv({"tau", "mean_flips", "mean_EM", "sem_EM",
                      "mean_largest_cluster", "mean_interface"});
  for (double tau = 0.35; tau < 0.50; tau += 0.02) {
    seg::RunningStats flips, em, largest, interface_len;
    for (std::size_t t = 0; t < trials; ++t) {
      seg::ModelParams params{.n = n, .w = w, .tau = tau, .p = 0.5};
      seg::Rng init = seg::Rng::stream(seed + t, 0);
      seg::SchellingModel m(params, init);
      seg::Rng dyn = seg::Rng::stream(seed + t, 1);
      flips.add(static_cast<double>(seg::run_glauber(m, dyn).flips));
      const auto field = seg::mono_region_field(m);
      seg::Rng smp = seg::Rng::stream(seed + t, 2);
      em.add(seg::mean_mono_region_size(field, 24, smp));
      const auto clusters = seg::cluster_stats(m);
      largest.add(static_cast<double>(clusters.largest_cluster));
      interface_len.add(static_cast<double>(clusters.interface_length));
    }
    csv.new_row()
        .add(tau)
        .add(flips.mean())
        .add(em.mean())
        .add(em.sem())
        .add(largest.mean())
        .add(interface_len.mean());
    std::printf("tau=%.2f  flips=%8.0f  E[M]=%8.1f  largest=%8.0f\n", tau,
                flips.mean(), em.mean(), largest.mean());
  }
  if (csv.write_file(out)) {
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}
