// Golden-seed trajectory regression: the lattice-engine ports of all five
// model variants (the comfort band is SchellingModel with tau_hi < 1) must
// reproduce the pre-refactor implementations bit for bit — same flips,
// same RNG consumption, same AgentSet iteration order.
// The constants below were captured from the seed implementations (before
// src/lattice/ existed) with exactly these parameters and seeds; any
// change in sampling order, count maintenance, or set mutation order
// shows up here as a hash mismatch.
//
// Also pins that an explicit tau_hi = 1 is the paper's model, flip for
// flip.
#include <gtest/gtest.h>

#include "core/dynamics.h"
#include "core/kawasaki.h"
#include "core/model.h"
#include "core/vacancy.h"
#include "golden_fixtures.h"
#include "multitype/multi_model.h"

namespace seg {
namespace {

// Helpers and frozen hash constants live in tests/golden_fixtures.h (one
// source of truth, shared with the streaming differential suite).
using golden::hash_bytes;
using golden::mix;
using golden::mix_double;

constexpr std::uint64_t kGoldenGlauber = golden::kGlauber;
constexpr std::uint64_t kGoldenDiscrete = golden::kDiscrete;
constexpr std::uint64_t kGoldenAsymVonNeumann = golden::kAsymVonNeumann;
constexpr std::uint64_t kGoldenSynchronous = golden::kSynchronous;
constexpr std::uint64_t kGoldenComfort = golden::kComfort;
constexpr std::uint64_t kGoldenVacancy = golden::kVacancy;
constexpr std::uint64_t kGoldenKawasaki = golden::kKawasaki;
constexpr std::uint64_t kGoldenMulti = golden::kMulti;

TEST(GoldenTrajectory, SchellingGlauber) {
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1001, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1001, 1);
  const RunResult r = run_glauber(m, dyn);
  EXPECT_TRUE(r.terminated);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, kGoldenGlauber);
}

TEST(GoldenTrajectory, SchellingDiscreteSuperUnhappy) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.55, .p = 0.5};
  Rng init = Rng::stream(1002, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1002, 1);
  RunOptions opt;
  opt.max_flips = 3000;
  const RunResult r = run_discrete(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, kGoldenDiscrete);
}

TEST(GoldenTrajectory, AsymmetricVonNeumann) {
  ModelParams p{.n = 40, .w = 3, .tau = 0.4, .p = 0.5, .tau_minus = 0.55,
                .shape = NeighborhoodShape::kVonNeumann};
  Rng init = Rng::stream(1003, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1003, 1);
  RunOptions opt;
  opt.max_flips = 4000;
  const RunResult r = run_glauber(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, kGoldenAsymVonNeumann);
}

TEST(GoldenTrajectory, Synchronous) {
  ModelParams p{.n = 32, .w = 2, .tau = 0.45, .p = 0.5};
  Rng init = Rng::stream(1004, 0);
  SchellingModel m(p, init);
  const RunResult r = run_synchronous(m, 64);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix(h, r.rounds);
  h = mix(h, r.cycle_detected ? 1 : 0);
  EXPECT_EQ(h, kGoldenSynchronous);
}

TEST(GoldenTrajectory, ComfortBand) {
  ModelParams p{.n = 40, .w = 2, .tau = 0.4, .p = 0.5, .tau_hi = 0.8};
  Rng init = Rng::stream(1005, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1005, 1);
  RunOptions opt;
  opt.max_flips = 5000;
  const RunResult r = run_glauber(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, kGoldenComfort);
}

TEST(GoldenTrajectory, VacancyRelocation) {
  VacancyParams p{.n = 40, .w = 2, .tau = 0.5, .vacancy = 0.12, .p = 0.5,
                  .relocation_attempts = 16};
  Rng init = Rng::stream(1006, 0);
  VacancyModel m(p, init);
  Rng dyn = Rng::stream(1006, 1);
  VacancyRunOptions opt;
  opt.max_moves = 4000;
  const VacancyRunResult r = run_vacancy(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.sites().data(), m.sites().size());
  h = mix(h, r.moves);
  h = mix(h, r.proposals);
  EXPECT_EQ(h, kGoldenVacancy);
}

TEST(GoldenTrajectory, KawasakiSwaps) {
  ModelParams p{.n = 32, .w = 2, .tau = 0.4, .p = 0.5};
  Rng init = Rng::stream(1007, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1007, 1);
  KawasakiOptions opt;
  opt.max_swaps = 1500;
  const KawasakiResult r = run_kawasaki(m, dyn, opt);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.swaps);
  h = mix(h, r.proposals);
  EXPECT_EQ(h, kGoldenKawasaki);
}

TEST(GoldenTrajectory, MultiTypeQ4) {
  MultiParams p{.n = 40, .w = 2, .q = 4, .tau = 0.35};
  Rng init = Rng::stream(1008, 0);
  MultiTypeModel m(p, init);
  Rng dyn = Rng::stream(1008, 1);
  const MultiRunResult r = run_multi(m, dyn, 6000);
  std::uint64_t h = hash_bytes(m.types().data(), m.types().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, kGoldenMulti);
}

// tau_hi = 1 caps nothing: written out, it is the default field, and the
// golden Glauber trajectory is unchanged, flip for flip.
TEST(GoldenTrajectory, ExplicitFullComfortBandIsTheDefault) {
  EXPECT_EQ(ModelParams{}.tau_hi, 1.0);
  ModelParams p{.n = 48, .w = 3, .tau = 0.45, .p = 0.5, .tau_hi = 1.0};
  Rng init = Rng::stream(1001, 0);
  SchellingModel m(p, init);
  Rng dyn = Rng::stream(1001, 1);
  const RunResult r = run_glauber(m, dyn);
  EXPECT_TRUE(r.terminated);
  std::uint64_t h = hash_bytes(m.spins().data(), m.spins().size());
  h = mix(h, r.flips);
  h = mix_double(h, r.final_time);
  EXPECT_EQ(h, kGoldenGlauber);
}

}  // namespace
}  // namespace seg
