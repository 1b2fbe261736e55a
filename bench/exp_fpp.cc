// FPP — Kesten's Theorem 3 (used in the paper's Lemma 7): for i.i.d.
// site-weight first-passage percolation, T_k/k converges to a time
// constant mu and the fluctuations of T_k are O(sqrt(k)). We estimate both
// with exponential weights (the paper's waiting-time distribution) and
// verify the speed-bound scaling that Lemma 7 extracts: with weights of
// mean 1/N, passage over distance k takes ~ mu k / N.
#include <cmath>
#include <cstdio>
#include <vector>

#include "io/table.h"
#include "percolation/fpp.h"
#include "util/args.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  const seg::ArgParser args(argc, argv);
  const int L = static_cast<int>(args.get_int("L", 192));
  const auto trials = static_cast<std::size_t>(args.get_int("trials", 16));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
  if (!args.check_usage({"L", "trials", "seed"})) return 1;

  std::printf("== Theorem 3 (Kesten): T_k/k convergence and sqrt(k) "
              "fluctuations ==\n");
  std::printf("(Exp(1) site weights on a %dx%d box, %zu independent "
              "fields)\n\n",
              L, L, trials);

  seg::TablePrinter table({"k", "mean T_k", "T_k/k", "std T_k",
                           "std/sqrt(k)"});
  std::vector<double> ratios;
  for (const int k : {24, 48, 96, 160}) {
    seg::RunningStats tk;
    for (std::size_t t = 0; t < trials; ++t) {
      seg::Rng rng = seg::Rng::stream(seed + t, static_cast<std::uint64_t>(k));
      const seg::FppField field(L, 1.0, rng);
      tk.add(field.axis_passage_time(8, L / 2, k));
    }
    table.new_row()
        .add(static_cast<std::int64_t>(k))
        .add(tk.mean(), 2)
        .add(tk.mean() / k, 4)
        .add(tk.stddev(), 3)
        .add(tk.stddev() / std::sqrt(static_cast<double>(k)), 4);
    ratios.push_back(tk.mean() / k);
  }
  table.print();

  const double drift = std::abs(ratios.back() - ratios[ratios.size() - 2]);
  std::printf("\nT_k/k drift between the last two k values: %.4f "
              "(convergence to mu: smaller is better)\n",
              drift);
  std::printf("expected shape: T_k/k approaching a constant mu < 1 and "
              "std/sqrt(k) roughly flat (Kesten's concentration).\n\n");

  std::printf("== Lemma 7 scaling: mean-1/N weights slow the spread by N "
              "==\n");
  const int k = 96;
  seg::TablePrinter t2({"weight mean", "mean T_k", "T_k * N / k"});
  for (const double inv_n : {1.0, 1.0 / 25.0, 1.0 / 49.0}) {
    seg::RunningStats tk;
    for (std::size_t t = 0; t < trials; ++t) {
      seg::Rng rng = seg::Rng::stream(seed + 500 + t,
                                      static_cast<std::uint64_t>(1.0 / inv_n));
      const seg::FppField field(L, 1.0 / inv_n, rng);
      tk.add(field.axis_passage_time(8, L / 2, k));
    }
    t2.new_row()
        .add(inv_n, 4)
        .add(tk.mean(), 3)
        .add(tk.mean() / (inv_n * k), 4);
  }
  t2.print();
  std::printf("expected: the normalized column is constant — the unhappy-"
              "agent front needs time ~ c k / N to travel k blocks, which "
              "is Lemma 7's bound.\n");
  return 0;
}
