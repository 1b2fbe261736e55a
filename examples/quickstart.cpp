// Quickstart: run the paper's Schelling/Glauber process to its absorbing
// state on a small torus and print what happened.
//
//   ./quickstart [--n 128] [--w 4] [--tau 0.45] [--p 0.5] [--seed 1]
#include <cstdio>

#include "analysis/clusters.h"
#include "analysis/regions.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "util/args.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  seg::ModelParams params;
  params.n = static_cast<int>(args.get_int("n", 128));
  params.w = static_cast<int>(args.get_int("w", 4));
  params.tau = args.get_double("tau", 0.45);
  params.p = args.get_double("p", 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (!args.check_usage({"n", "w", "tau", "p", "seed"})) return 1;
  if (!params.valid()) {
    std::fprintf(stderr,
                 "invalid parameters (need 2w+1 <= n and a window of at "
                 "most %d sites)\n",
                 seg::kMaxNeighborhoodSize);
    return 1;
  }

  seg::Rng init = seg::Rng::stream(seed, 0);
  seg::SchellingModel model(params, init);
  std::printf("Schelling/Glauber on a %dx%d torus, w=%d (N=%d), tau=%.3f "
              "(K=%d)\n",
              params.n, params.n, params.w, params.neighborhood_size(),
              params.tau, model.happy_threshold());
  std::printf("initial: %5.1f%% happy, %zu unhappy agents\n",
              100.0 * model.happy_fraction(), model.count_unhappy());

  seg::Rng dyn = seg::Rng::stream(seed, 1);
  const seg::RunResult result = seg::run_glauber(model, dyn);
  std::printf("dynamics: %llu flips, continuous time %.2f, %s\n",
              static_cast<unsigned long long>(result.flips),
              result.final_time,
              result.terminated ? "terminated" : "stopped early");
  std::printf("final:   %5.1f%% happy\n", 100.0 * model.happy_fraction());

  const auto clusters = seg::cluster_stats(model);
  std::printf("clusters: %zu same-type components, largest %lld sites, "
              "interface %lld\n",
              clusters.cluster_count,
              static_cast<long long>(clusters.largest_cluster),
              static_cast<long long>(clusters.interface_length));

  const auto field = seg::mono_region_field(model);
  seg::Rng sample = seg::Rng::stream(seed, 2);
  const double mean_m = seg::mean_mono_region_size(field, 32, sample);
  std::printf("segregation: largest monochromatic ball %lld sites; "
              "E[M] over sampled agents ~ %.1f sites\n",
              static_cast<long long>(seg::largest_mono_region(field)),
              mean_m);
  return 0;
}
