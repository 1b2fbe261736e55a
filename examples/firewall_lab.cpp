// Firewall laboratory: scans a random initial configuration for radical
// regions (Lemma 20 in action), verifies the unhappy nucleus (Lemma 4),
// tries the expandability flip sequence (Lemma 5), and prints the annular
// firewall stability certificate (Lemma 9) for the chosen geometry.
//
//   ./firewall_lab --n 96 --w 3 --tau 0.45 --eps_prime 0.3
#include <cstdio>

#include "core/model.h"
#include "firewall/annulus.h"
#include "firewall/radical.h"
#include "theory/bounds.h"
#include "theory/constants.h"
#include "util/args.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  seg::ModelParams params;
  params.n = static_cast<int>(args.get_int("n", 96));
  params.w = static_cast<int>(args.get_int("w", 3));
  params.tau = args.get_double("tau", 0.45);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  seg::RadicalParams rp;
  rp.eps_prime = args.get_double("eps_prime", 0.5);
  rp.eps = args.get_double("eps", 0.01);
  const double r = args.get_double("r", params.n / 3.0);
  if (!args.check_usage({"n", "w", "tau", "seed", "eps_prime", "eps", "r"})) {
    return 1;
  }
  if (!params.valid()) {
    std::fprintf(stderr, "invalid parameters\n");
    return 1;
  }

  const double f = seg::f_tau(params.tau);
  std::printf("tau=%.3f: Lemma 5 requires eps' > f(tau) = %.4f "
              "(using eps'=%.3f)\n",
              params.tau, f, rp.eps_prime);

  seg::Rng init = seg::Rng::stream(seed, 0);
  seg::SchellingModel model(params, init);

  const auto centers = seg::find_radical_regions(model, rp, -1);
  const double predicted = seg::radical_region_probability_exact(
      params.tau, params.w, rp.eps_prime, rp.eps);
  std::printf("radical regions for (+1) growth: %zu of %zu centers "
              "(%.2e/center; Lemma 20 binomial prediction %.2e)\n",
              centers.size(), model.agent_count(),
              static_cast<double>(centers.size()) /
                  static_cast<double>(model.agent_count()),
              predicted);

  if (!centers.empty()) {
    const seg::Point c = centers.front();
    std::printf("probing radical region at (%d, %d):\n", c.x, c.y);
    const auto nucleus = seg::check_unhappy_nucleus(model, c, rp, -1);
    std::printf("  nucleus: %lld minority agents, %lld unhappy "
                "(Lemma 4 requires >= %lld): %s\n",
                static_cast<long long>(nucleus.minority_in_nucleus),
                static_cast<long long>(nucleus.unhappy_minority_in_nucleus),
                static_cast<long long>(nucleus.required),
                nucleus.holds ? "holds" : "fails");
    const auto expansion = seg::try_expand_radical_region(model, c, rp, -1);
    std::printf("  expandable (Lemma 5, budget (w+1)^2 = %d flips): %s "
                "(%llu flips used)\n",
                (params.w + 1) * (params.w + 1),
                expansion.expanded ? "yes" : "no",
                static_cast<unsigned long long>(expansion.flips_used));
  }

  // Lemma 9 certificate for an annular firewall around the grid center.
  const auto cert = seg::firewall_certificate(
      {params.n / 2, params.n / 2}, r, params.w, params.tau, params.n);
  std::printf("firewall certificate (r=%.1f, width sqrt(2)w=%.2f): %s "
              "(min margin %d over %zu annulus agents)\n",
              r, 1.4142 * params.w, cert.stable ? "STABLE" : "NOT STABLE",
              cert.min_margin, cert.annulus_size);
  const int min_r = seg::min_stable_firewall_radius(
      params.w, params.tau, params.n, 3, params.n / 2 - 1);
  if (min_r > 0) {
    std::printf("smallest stable radius at these parameters: %d\n", min_r);
  } else {
    std::printf("no stable radius fits this torus at these parameters\n");
  }
  return 0;
}
