// FIRE — the proof machinery measured directly:
//
//  (Lemma 20) frequency of radical regions in the initial configuration
//             vs the exact binomial prediction;
//  (Lemma 4)  fraction of found radical regions whose nucleus holds the
//             required unhappy minority agents;
//  (Lemma 5)  expandability success vs the eps' > f(tau) threshold;
//  (Lemma 9)  smallest stable annular-firewall radius as w grows, plus a
//             dynamic protection check under adversarial exteriors.
#include <cstdio>

#include "core/dynamics.h"
#include "core/model.h"
#include "firewall/annulus.h"
#include "firewall/radical.h"
#include "io/table.h"
#include "theory/bounds.h"
#include "theory/constants.h"
#include "util/args.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 23));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 3));
  if (!args.check_usage({"seed", "trials"})) return 1;

  std::printf("== Lemma 20: radical-region frequency vs binomial "
              "prediction ==\n\n");
  seg::TablePrinter t20({"w", "tau", "eps'", "measured/center",
                         "predicted", "ratio"});
  // eps -> 0 gives the mildest deflation the definition permits
  // (tau^ = tau - N^{-(1/2-eps)}); at laptop-scale N anything stronger
  // makes radical regions unobservably rare (they are 2^{-Theta(N)}
  // events even here — exactly the Lemma 20 scaling).
  const seg::RadicalParams rp{.eps_prime = 0.5, .eps = 0.01};
  for (const int w : {2, 3}) {
    for (const double tau : {0.42, 0.45, 0.48}) {
      const int n = 128;
      seg::RunningStats freq;
      for (std::size_t t = 0; t < trials; ++t) {
        seg::ModelParams params{.n = n, .w = w, .tau = tau, .p = 0.5};
        seg::Rng init = seg::Rng::stream(seed + t, w * 100);
        seg::SchellingModel model(params, init);
        const auto centers = seg::find_radical_regions(model, rp, -1);
        freq.add(static_cast<double>(centers.size()) /
                 static_cast<double>(model.agent_count()));
      }
      const double predicted = seg::radical_region_probability_exact(
          tau, w, rp.eps_prime, rp.eps);
      t20.new_row()
          .add(static_cast<std::int64_t>(w))
          .add(tau, 2)
          .add(rp.eps_prime, 2)
          .add(freq.mean(), 6)
          .add(predicted, 6)
          .add(predicted > 0 ? freq.mean() / predicted : 0.0, 3);
    }
  }
  t20.print();
  std::printf("expected: measured within a small constant of the "
              "prediction (centers overlap, so the ratio is not exactly "
              "1).\n\n");

  std::printf("== Lemmas 4-5: nucleus and expandability at found radical "
              "regions ==\n\n");
  {
    const int n = 128, w = 3;
    const double tau = 0.45;
    const double f = seg::f_tau(tau);
    seg::TablePrinter t45({"eps'", "vs f(tau)", "regions", "nucleus holds",
                           "expandable"});
    for (const double eps_prime : {0.10, 0.30, 0.50}) {
      const seg::RadicalParams probe{.eps_prime = eps_prime, .eps = 0.01};
      std::size_t regions = 0, nucleus_ok = 0, expandable = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        seg::ModelParams params{.n = n, .w = w, .tau = tau, .p = 0.5};
        seg::Rng init = seg::Rng::stream(seed + 40 + t, 0);
        seg::SchellingModel model(params, init);
        const auto centers = seg::find_radical_regions(model, probe, -1);
        // Probe a capped number of centers per trial (they overlap).
        std::size_t budget = 20;
        for (const seg::Point c : centers) {
          if (budget-- == 0) break;
          ++regions;
          nucleus_ok += seg::check_unhappy_nucleus(model, c, probe, -1).holds;
          expandable +=
              seg::try_expand_radical_region(model, c, probe, -1).expanded;
        }
      }
      char rel[32];
      std::snprintf(rel, sizeof(rel), "%s f(tau)=%.3f",
                    eps_prime > f ? ">" : "<", f);
      t45.new_row()
          .add(eps_prime, 2)
          .add(rel)
          .add(static_cast<std::int64_t>(regions))
          .add(regions ? static_cast<double>(nucleus_ok) / regions : 0.0, 3)
          .add(regions ? static_cast<double>(expandable) / regions : 0.0, 3);
    }
    t45.print();
    std::printf("expected: expandability rate increasing in eps', high "
                "for eps' > f(tau).\n\n");
  }

  std::printf("== Lemma 9: smallest stable annular firewall radius ==\n\n");
  seg::TablePrinter t9({"w", "tau", "min stable r", "w^3 (paper's "
                        "sufficient r)"});
  for (const int w : {2, 3, 4}) {
    for (const double tau : {0.37, 0.42, 0.45}) {
      const int n = 160;
      const int r = seg::min_stable_firewall_radius(w, tau, n, 3, n / 2 - 1);
      t9.new_row()
          .add(static_cast<std::int64_t>(w))
          .add(tau, 2)
          .add(static_cast<std::int64_t>(r))
          .add(static_cast<std::int64_t>(w) * w * w);
    }
  }
  t9.print();
  std::printf("expected: finite stable radii far below the w^3 sufficient "
              "bound. Where the straight-band margin fails (w(2w+1)+1 < K, "
              "e.g. w<=3 at tau=0.45),\nthe search only succeeds at "
              "lattice-accident radii or not at all — Lemma 9's "
              "'sufficiently large w' is visible as this discrete "
              "threshold.\n\n");

  std::printf("== Lemma 9 (dynamic): protected sites never flip ==\n\n");
  {
    const int n = 96, w = 3;
    const double tau = 0.42, r = 30.0;
    std::size_t violations = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      auto spins = seg::make_firewall_config({n / 2, n / 2}, r, w, n, +1);
      const auto ring = seg::annulus_sites({n / 2, n / 2}, r, w, n);
      const auto inside = seg::annulus_interior({n / 2, n / 2}, r, w, n);
      std::vector<std::uint8_t> protected_site(spins.size(), 0);
      for (const auto id : ring) protected_site[id] = 1;
      for (const auto id : inside) protected_site[id] = 1;
      seg::Rng noise = seg::Rng::stream(seed + 80 + t, 0);
      for (std::size_t i = 0; i < spins.size(); ++i) {
        if (!protected_site[i]) spins[i] = noise.bernoulli(0.5) ? 1 : -1;
      }
      seg::ModelParams params{.n = n, .w = w, .tau = tau, .p = 0.5};
      seg::SchellingModel model(params, spins);
      seg::Rng dyn = seg::Rng::stream(seed + 80 + t, 1);
      seg::run_glauber(model, dyn);
      for (std::size_t i = 0; i < spins.size(); ++i) {
        if (protected_site[i] &&
            model.spin(static_cast<std::uint32_t>(i)) != 1) {
          ++violations;
        }
      }
    }
    std::printf("protected-site flips across %zu adversarial runs: %zu "
                "(expected 0)\n",
                trials, violations);
  }
  return 0;
}
