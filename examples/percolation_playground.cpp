// Percolation substrate demo: cluster structure, chemical distance, and
// first-passage times — the machinery behind the paper's Lemmas 7, 13, 14.
//
//   ./percolation_playground --L 128 --p 0.75
#include <cstdio>

#include "percolation/chemical.h"
#include "percolation/clusters.h"
#include "percolation/field.h"
#include "percolation/fpp.h"
#include "util/args.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int L = static_cast<int>(args.get_int("L", 128));
  const double p = args.get_double("p", 0.75);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  if (!args.check_usage({"L", "p", "seed"})) return 1;

  seg::Rng rng = seg::Rng::stream(seed, 0);
  const seg::SiteField field(L, p, rng);
  std::printf("site percolation on %dx%d, p=%.3f (p_c ~ %.4f)\n", L, L, p,
              seg::kSiteCriticalP);
  std::printf("open fraction: %.4f\n", field.open_fraction());

  const auto clusters = seg::percolation_clusters(field);
  std::printf("clusters: %zu, largest %lld (%.1f%% of open sites)\n",
              clusters.size.size(),
              static_cast<long long>(clusters.largest),
              100.0 * seg::largest_cluster_fraction(field));
  std::printf("spans horizontally: %s\n",
              seg::spans_horizontally(field) ? "yes" : "no");

  // Chemical stretch across the box (Garet-Marchand / Lemma 13).
  const auto stretch =
      seg::chemical_stretch(field, L / 8, L / 2, 7 * L / 8, L / 2);
  if (stretch.connected) {
    std::printf("chemical distance across the box: %d (l1 %d, stretch "
                "%.3f)\n",
                stretch.distance, stretch.l1, stretch.stretch);
  } else {
    std::printf("chosen endpoints not connected at this p\n");
  }

  // First-passage percolation (Kesten / Lemma 7): T_k/k estimates.
  seg::Rng fpp_rng = seg::Rng::stream(seed, 1);
  const seg::FppField fpp(L, 1.0, fpp_rng);
  for (const int k : {L / 8, L / 4, L / 2, 3 * L / 4}) {
    const double t = fpp.axis_passage_time(L / 8, L / 2, k);
    std::printf("FPP: T_%-4d = %8.2f   T_k/k = %.4f\n", k, t,
                t / static_cast<double>(k));
  }
  return 0;
}
