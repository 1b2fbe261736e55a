// PHASE — the (tau, p) phase portrait the paper's concluding remarks ask
// about ("how the parameter of the initial distribution of the agents
// influences segregation"): for each (intolerance, initial density) cell
// we run the process and record the mean monochromatic region and whether
// the grid fixated on one type. Prints a console map and writes the full
// grid as CSV.
//
// A thin scenario definition over the campaign engine: the sweep itself is
// the built-in `phase_diagram` campaign (src/campaign/builtin.h), shared
// with examples/campaign_runner, so aggregates are bitwise identical at
// any --threads and across checkpoint/resume.
#include <cstdio>
#include <string>

#include "campaign/builtin.h"
#include "campaign/sinks.h"
#include "io/table.h"
#include "util/args.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int n = static_cast<int>(args.get_int("n", 64));
  const int w = static_cast<int>(args.get_int("w", 2));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 37));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const std::string out = args.get_string("out", "phase_diagram.csv");
  const std::string checkpoint = args.get_string("checkpoint", "");
  const bool resume = args.get_bool("resume", false);
  if (!args.check_usage({"n", "w", "trials", "seed", "threads", "out",
                         "checkpoint", "resume"})) {
    return 1;
  }

  seg::BuiltinCampaign campaign;
  seg::make_builtin_campaign(
      "phase_diagram", {.n = n, .w = w, .replicas = trials}, &campaign);

  std::printf("== (tau, p) phase portrait (n=%d, w=%d, %zu trials/cell) "
              "==\n\n",
              n, w, trials);
  std::printf("cell symbol: '.' static-ish, 'o' segregated regions, "
              "'#' majority fixation (complete segregation)\n\n");

  seg::CampaignOptions options;
  options.threads = threads;
  options.checkpoint_path = checkpoint;
  options.resume = resume;
  const seg::CampaignResult result = seg::run_campaign(
      campaign.spec, campaign.points, campaign.metric_names,
      campaign.replica, seed, options);

  // Console map: points expand with tau outermost, p innermost.
  const std::vector<double>& taus = campaign.spec.tau;
  const std::vector<double>& ps = campaign.spec.p;
  std::vector<std::string> header = {"tau \\ p"};
  for (const double p : ps) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.2f", p);
    header.emplace_back(buf);
  }
  seg::TablePrinter map(header);
  for (std::size_t ti = 0; ti < taus.size(); ++ti) {
    map.new_row();
    char label[16];
    std::snprintf(label, sizeof(label), "%.2f", taus[ti]);
    map.add(label);
    for (std::size_t pi = 0; pi < ps.size(); ++pi) {
      const std::size_t point = ti * ps.size() + pi;
      const double em = result.stats_for(point, "mean_mono_region")->mean();
      const double fixation = result.stats_for(point, "fixation")->mean();
      const double cells = static_cast<double>(n) * n;
      const char* symbol = fixation >= 0.5        ? "#"
                           : em >= 0.02 * cells   ? "o"
                                                  : ".";
      char cell[24];
      std::snprintf(cell, sizeof(cell), "%s %6.0f", symbol, em);
      map.add(cell);
    }
  }
  map.print();
  std::printf("\nexpected: fixation ('#') occupies the high-p column well "
              "before p = 1 (Fontes et al.), while the p = 1/2 column "
              "segregates without fixating (the paper's corollary).\n");

  seg::CsvSink csv(out);
  if (csv.write(campaign.spec, result)) {
    std::printf("full grid written to %s\n", out.c_str());
  }
  return 0;
}
