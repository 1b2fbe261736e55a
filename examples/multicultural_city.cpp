// Multi-type demo: a "city" of q cultural groups under the Schelling rule
// (the Potts-like generalization of Schulze [20]). Prints per-type shares,
// happiness and cluster structure before and after the dynamics, and
// renders the final map as a PPM.
//
//   ./multicultural_city --n 128 --w 3 --q 4 --tau 0.35 --out city.ppm
#include <cstdio>
#include <string>

#include "io/ppm.h"
#include "multitype/multi_model.h"
#include "util/args.h"

namespace {

seg::Rgb type_color(std::uint8_t t) {
  static constexpr seg::Rgb kPalette[] = {
      {46, 160, 67},   {33, 96, 196},  {214, 64, 48},   {255, 214, 0},
      {148, 62, 198},  {0, 180, 180},  {230, 120, 30},  {120, 120, 120},
      {200, 80, 140},  {90, 160, 220}, {160, 200, 60},  {70, 70, 160},
      {220, 180, 140}, {20, 120, 80},  {180, 40, 90},   {240, 240, 240},
  };
  return kPalette[t % 16];
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  seg::MultiParams params;
  params.n = static_cast<int>(args.get_int("n", 128));
  params.w = static_cast<int>(args.get_int("w", 3));
  params.q = static_cast<int>(args.get_int("q", 4));
  params.tau = args.get_double("tau", 0.35);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 8));
  const std::string out = args.get_string("out", "city.ppm");
  if (!args.check_usage({"n", "w", "q", "tau", "seed", "out"})) return 1;
  if (!params.valid()) {
    std::fprintf(stderr, "invalid parameters\n");
    return 1;
  }

  seg::Rng init = seg::Rng::stream(seed, 0);
  seg::MultiTypeModel model(params, init);
  std::printf("%d cultural groups on a %dx%d torus, w=%d, tau=%.2f "
              "(K=%d of %d)\n",
              params.q, params.n, params.n, params.w, params.tau,
              params.happy_threshold(), params.neighborhood_size());
  std::printf("initial: happy %.1f%%, largest single-group district %lld\n",
              100.0 * model.happy_fraction(),
              static_cast<long long>(seg::largest_type_cluster(model)));

  seg::Rng dyn = seg::Rng::stream(seed, 1);
  const seg::MultiRunResult r = seg::run_multi(model, dyn, 1u << 23);
  std::printf("dynamics: %llu moves, %s\n",
              static_cast<unsigned long long>(r.flips),
              r.quiescent ? "quiescent" : "budget exhausted");
  std::printf("final:   happy %.1f%%, largest single-group district %lld\n",
              100.0 * model.happy_fraction(),
              static_cast<long long>(seg::largest_type_cluster(model)));
  const auto fractions = model.type_fractions();
  std::printf("group shares:");
  for (std::size_t t = 0; t < fractions.size(); ++t) {
    std::printf(" %zu:%.3f", t, fractions[t]);
  }
  std::printf("\n");

  seg::PpmImage img(params.n, params.n);
  for (int y = 0; y < params.n; ++y) {
    for (int x = 0; x < params.n; ++x) {
      img.set(x, y, type_color(model.type_at(x, y)));
    }
  }
  if (img.write_file(out)) std::printf("map written to %s\n", out.c_str());
  return 0;
}
