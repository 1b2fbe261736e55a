// Figure-1-style visualization: runs the process and writes PPM frames
// using the paper's palette (green/blue happy, white/yellow unhappy).
//
//   ./segregation_map --n 256 --w 10 --tau 0.42 --frames 4 --out out
//
// Reproduces the four panels of the paper's Figure 1 at a configurable
// scale (the paper uses n = 1000, w = 10, tau = 0.42; pass --n 1000 for
// the full-size run).
#include <cstdio>
#include <string>
#include <sys/stat.h>

#include "core/dynamics.h"
#include "core/model.h"
#include "io/ppm.h"
#include "util/args.h"

namespace {

void write_frame(const seg::SchellingModel& model, const std::string& path) {
  const int n = model.side();
  seg::PpmImage img(n, n);
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const std::uint32_t id = model.id_of(x, y);
      img.set(x, y, seg::fig1_color(model.spin(id), model.is_happy(id)));
    }
  }
  if (!img.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  } else {
    std::printf("wrote %s (happy %.1f%%)\n", path.c_str(),
                100.0 * model.happy_fraction());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  seg::ModelParams params;
  params.n = static_cast<int>(args.get_int("n", 256));
  params.w = static_cast<int>(args.get_int("w", 10));
  params.tau = args.get_double("tau", 0.42);
  params.p = args.get_double("p", 0.5);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto frames = static_cast<int>(args.get_int("frames", 4));
  const std::string out_dir = args.get_string("out", "out");
  if (!args.check_usage({"n", "w", "tau", "p", "seed", "frames", "out"})) {
    return 1;
  }
  if (!params.valid() || frames < 2) {
    std::fprintf(stderr, "invalid parameters\n");
    return 1;
  }
  ::mkdir(out_dir.c_str(), 0755);

  seg::Rng init = seg::Rng::stream(seed, 0);
  seg::SchellingModel model(params, init);
  write_frame(model, out_dir + "/frame0.ppm");

  // Estimate the total flip budget with a probe run? Cheaper: run in
  // chunks and emit a frame after each chunk until absorption; the chunk
  // size is a fraction of the expected O(n^2) activity.
  seg::Rng dyn = seg::Rng::stream(seed, 1);
  const std::uint64_t chunk = static_cast<std::uint64_t>(params.n) *
                              static_cast<std::uint64_t>(params.n) / 4;
  int frame = 1;
  for (; frame < frames; ++frame) {
    seg::RunOptions opt;
    opt.max_flips = chunk;
    const seg::RunResult r = seg::run_glauber(model, dyn, opt);
    write_frame(model, out_dir + "/frame" + std::to_string(frame) + ".ppm");
    if (r.terminated) break;
  }
  if (!model.terminated()) {
    const seg::RunResult r = seg::run_glauber(model, dyn);
    std::printf("ran to absorption with %llu more flips\n",
                static_cast<unsigned long long>(r.flips));
    write_frame(model, out_dir + "/frame_final.ppm");
  }
  return 0;
}
