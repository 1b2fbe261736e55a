// PERC — the two percolation theorems the paper leans on:
//
// (Thm 4, Garet-Marchand): supercritical chemical distance. The stretch
// D(0,x)/||x||_1 concentrates near a constant that tends to 1 as p -> 1;
// the probability of a (1+alpha)-stretch decays exponentially. We sweep p
// above criticality and report mean stretch and the tail frequency.
//
// (Thm 5, Grimmett 5.4): subcritical cluster-radius decay. We estimate
// P(radius >= k) at sub-critical p and fit the exponential decay rate
// psi(p); the fit should be near-linear in k on a log scale and steeper
// for smaller p.
//
// Both sweeps are built-in campaigns (`percolation_stretch` and
// `percolation_radius`) run through the campaign engine with custom
// replica functions over percolation/; each replica draws its own field
// from its derived stream, so the sweep parallelizes deterministically.
#include <cmath>
#include <cstdio>
#include <vector>

#include "campaign/builtin.h"
#include "io/table.h"
#include "percolation/field.h"
#include "util/args.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 31));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const int L = static_cast<int>(args.get_int("L", 192));
  const auto pair_trials =
      static_cast<std::size_t>(args.get_int("pairs", 24));
  const int Lsub = static_cast<int>(args.get_int("Lsub", 61));
  const auto radius_trials =
      static_cast<std::size_t>(args.get_int("radius_trials", 400));
  if (!args.check_usage(
          {"seed", "threads", "L", "pairs", "Lsub", "radius_trials"})) {
    return 1;
  }

  std::printf("== Theorem 4 (chemical distance, supercritical) ==\n");

  seg::BuiltinCampaign stretch;
  seg::make_builtin_campaign("percolation_stretch",
                             {.n = L, .replicas = pair_trials}, &stretch);
  seg::CampaignOptions options;
  options.threads = threads;
  const seg::CampaignResult stretch_result =
      seg::run_campaign(stretch.spec, stretch.points, stretch.metric_names,
                        stretch.replica, seed, options);

  seg::TablePrinter t4({"p", "connected", "mean stretch",
                        "P(stretch >= 1.25)"});
  for (std::size_t pi = 0; pi < stretch.spec.p.size(); ++pi) {
    // The indicator sums come back as mean * count, which is inexact;
    // round back to the true integer count.
    const auto connected = static_cast<double>(
        std::llround(stretch_result.stats_for(pi, "connected")->sum()));
    const double stretch_sum =
        stretch_result.stats_for(pi, "stretch")->sum();
    const double tail_sum = stretch_result.stats_for(pi, "tail_125")->sum();
    t4.new_row()
        .add(stretch.spec.p[pi], 2)
        .add(static_cast<std::int64_t>(connected))
        .add(connected > 0 ? stretch_sum / connected : 0.0, 4)
        .add(connected > 0 ? tail_sum / connected : 0.0, 3);
  }
  t4.print();
  std::printf("expected shape: stretch decreasing toward 1 and the 1.25-"
              "tail vanishing as p grows.\n\n");

  std::printf("== Theorem 5 (cluster-radius decay, subcritical) ==\n");

  seg::BuiltinCampaign radius;
  seg::make_builtin_campaign("percolation_radius",
                             {.n = Lsub, .replicas = radius_trials},
                             &radius);
  const seg::CampaignResult radius_result =
      seg::run_campaign(radius.spec, radius.points, radius.metric_names,
                        radius.replica, seed + 7, options);

  seg::TablePrinter t5({"p", "P(r>=2)", "P(r>=4)", "P(r>=8)", "P(r>=16)",
                        "decay rate psi"});
  const std::vector<int> ks{2, 4, 8, 16};
  for (std::size_t pi = 0; pi < radius.spec.p.size(); ++pi) {
    const double open_draws = radius_result.stats_for(pi, "open")->sum();
    t5.new_row().add(radius.spec.p[pi], 2);
    std::vector<double> xs, logs;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      const std::string metric = "r_ge_" + std::to_string(ks[i]);
      const double hits = radius_result.stats_for(pi, metric)->sum();
      const double frac = open_draws > 0 ? hits / open_draws : 0.0;
      t5.add(frac, 4);
      if (frac > 0) {
        xs.push_back(ks[i]);
        logs.push_back(std::log(frac));
      }
    }
    const seg::LinearFit fit = seg::fit_line(xs, logs);
    t5.add(-fit.slope, 4);
  }
  t5.print();
  std::printf("expected shape: exponential tails, with the decay rate psi "
              "decreasing as p approaches p_c ~ %.3f from below.\n",
              seg::kSiteCriticalP);
  return 0;
}
