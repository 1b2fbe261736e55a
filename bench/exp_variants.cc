// VARIANTS — ablations over the model variations the paper's concluding
// remarks and related work call out:
//
//  (a) comfort band: agents also dislike being an overwhelming majority
//      (ModelParams::tau_hi < 1). The paper conjectures this weakens
//      segregation; we sweep tau_hi and watch the largest same-type
//      cluster collapse.
//  (b) asymmetric intolerance (Barmpalias et al. [26]): tau_minus != tau.
//      The open system drifts toward the more tolerant type.
//  (c) multi-type (Potts-like, Schulze [20]): q types under the same rule;
//      residual unhappiness grows with q while single-type clusters still
//      coarsen far beyond their initial size.
#include <cstdio>

#include "analysis/clusters.h"
#include "analysis/regions.h"
#include "core/dynamics.h"
#include "core/model.h"
#include "io/table.h"
#include "multitype/multi_model.h"
#include "util/args.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 29));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 4));
  const int n = static_cast<int>(args.get_int("n", 64));
  if (!args.check_usage({"seed", "trials", "n"})) return 1;

  std::printf("== (a) Comfort band: cap on the same-type fraction ==\n");
  std::printf("(n=%d, w=2, tau_lo=0.45, %zu trials; tau_hi=1 is the "
              "paper's model)\n\n",
              n, trials);
  {
    seg::TablePrinter t({"tau_hi", "quiescent%", "happy%", "largest cluster",
                         "interface"});
    for (const double tau_hi : {1.0, 0.9, 0.8, 0.7, 0.6}) {
      seg::RunningStats quiescent, happy, largest, interface_len;
      for (std::size_t k = 0; k < trials; ++k) {
        seg::ModelParams p{.n = n, .w = 2, .tau = 0.45, .p = 0.5,
                           .tau_hi = tau_hi};
        seg::Rng init = seg::Rng::stream(seed + k, 0);
        seg::SchellingModel m(p, init);
        seg::Rng dyn = seg::Rng::stream(seed + k, 1);
        seg::RunOptions opt;
        opt.max_flips = 400000;  // no Lyapunov guarantee under a cap
        const auto r = seg::run_glauber(m, dyn, opt);
        quiescent.add(r.terminated ? 1.0 : 0.0);
        happy.add(m.happy_fraction());
        const auto stats = seg::cluster_stats(m.spins(), n);
        largest.add(static_cast<double>(stats.largest_cluster));
        interface_len.add(static_cast<double>(stats.interface_length));
      }
      t.new_row()
          .add(tau_hi, 2)
          .add(100.0 * quiescent.mean(), 0)
          .add(100.0 * happy.mean(), 1)
          .add(largest.mean(), 0)
          .add(interface_len.mean(), 0);
    }
    t.print();
    std::printf("expected: giant clusters at tau_hi = 1 collapse as the "
                "band tightens — discomfort with majority status undoes "
                "self-segregation.\n\n");
  }

  std::printf("== (b) Asymmetric intolerance (tau fixed 0.45 for +1) ==\n\n");
  {
    seg::TablePrinter t({"tau_minus", "final +1 fraction", "E[M]",
                         "flips"});
    for (const double tau_minus : {0.35, 0.40, 0.45, 0.49}) {
      seg::RunningStats plus_frac, em, flips;
      for (std::size_t k = 0; k < trials; ++k) {
        seg::ModelParams p{.n = n, .w = 2, .tau = 0.45, .p = 0.5,
                           .tau_minus = tau_minus};
        seg::Rng init = seg::Rng::stream(seed + 100 + k, 0);
        seg::SchellingModel m(p, init);
        seg::Rng dyn = seg::Rng::stream(seed + 100 + k, 1);
        seg::RunOptions opt;
        opt.max_flips = 400000;  // no Lyapunov guarantee off the diagonal
        flips.add(static_cast<double>(seg::run_glauber(m, dyn, opt).flips));
        plus_frac.add(m.plus_fraction());
        const auto field = seg::mono_region_field(m);
        seg::Rng smp = seg::Rng::stream(seed + 100 + k, 2);
        em.add(seg::mean_mono_region_size(field, 24, smp));
      }
      t.new_row()
          .add(tau_minus, 2)
          .add(plus_frac.mean(), 4)
          .add(em.mean(), 1)
          .add(flips.mean(), 0);
    }
    t.print();
    std::printf("expected: the more intolerant type (higher tau_minus) "
                "flips away more often — the +1 share grows above 1/2.\n\n");
  }

  std::printf("== (c) Multi-type (q types, tau = 0.4, w = 2) ==\n\n");
  {
    seg::TablePrinter t({"q", "initial happy%", "final happy%",
                         "largest type cluster", "flips"});
    for (const int q : {2, 3, 4, 6}) {
      seg::RunningStats happy0, happy1, largest, flips;
      for (std::size_t k = 0; k < trials; ++k) {
        seg::MultiParams p{.n = n, .w = 2, .q = q, .tau = 0.4};
        seg::Rng init = seg::Rng::stream(seed + 200 + k, q);
        seg::MultiTypeModel m(p, init);
        happy0.add(m.happy_fraction());
        seg::Rng dyn = seg::Rng::stream(seed + 300 + k, q);
        const auto r = seg::run_multi(m, dyn, 1u << 21);
        happy1.add(m.happy_fraction());
        largest.add(static_cast<double>(seg::largest_type_cluster(m)));
        flips.add(static_cast<double>(r.flips));
      }
      t.new_row()
          .add(static_cast<std::int64_t>(q))
          .add(100.0 * happy0.mean(), 1)
          .add(100.0 * happy1.mean(), 1)
          .add(largest.mean(), 0)
          .add(flips.mean(), 0);
    }
    t.print();
    std::printf("expected: initial happiness collapses as q grows (each "
                "type holds ~1/q of a neighborhood); dynamics still "
                "coarsen single-type clusters dramatically.\n\n");
  }

  std::printf("== (d) Neighborhood shape: extended Moore (paper) vs von "
              "Neumann ==\n\n");
  {
    seg::TablePrinter t({"shape", "N", "flips", "E[M]",
                         "largest cluster"});
    for (const auto shape : {seg::NeighborhoodShape::kMoore,
                             seg::NeighborhoodShape::kVonNeumann}) {
      seg::RunningStats flips, em, largest;
      for (std::size_t k = 0; k < trials; ++k) {
        seg::ModelParams p{.n = n, .w = 3, .tau = 0.45, .p = 0.5};
        p.shape = shape;
        seg::Rng init = seg::Rng::stream(seed + 400 + k, 0);
        seg::SchellingModel m(p, init);
        seg::Rng dyn = seg::Rng::stream(seed + 400 + k, 1);
        flips.add(static_cast<double>(seg::run_glauber(m, dyn).flips));
        const auto field = seg::mono_region_field(m);
        seg::Rng smp = seg::Rng::stream(seed + 400 + k, 2);
        em.add(seg::mean_mono_region_size(field, 24, smp));
        largest.add(static_cast<double>(
            seg::cluster_stats(m.spins(), n).largest_cluster));
      }
      seg::ModelParams probe{.n = n, .w = 3, .tau = 0.45, .p = 0.5};
      probe.shape = shape;
      t.new_row()
          .add(shape == seg::NeighborhoodShape::kMoore ? "moore"
                                                       : "von neumann")
          .add(static_cast<std::int64_t>(probe.neighborhood_size()))
          .add(flips.mean(), 0)
          .add(em.mean(), 1)
          .add(largest.mean(), 0);
    }
    t.print();
    std::printf("expected: both geometries segregate; the paper's "
                "theorems are stated for the Moore stencil, and the "
                "diamond's smaller N shifts the effective thresholds.\n");
  }
  return 0;
}
