// Dynamics engines driving a SchellingModel to its absorbing state.
//
//  * run_glauber   — the paper's process: i.i.d. rate-1 Poisson clocks,
//                    flips happen only when the ringing agent is unhappy
//                    and flipping makes it happy. Simulated event-driven:
//                    between effective flips, continuous time advances by
//                    Exp(1)/|flippable| (superposition of Poisson clocks
//                    conditioned on an effective ring). The clock is
//                    optional: every quantity the paper bounds (M, M',
//                    fixation, majority) depends only on the flip
//                    sequence, so a run that reports no time skips the
//                    log per flip (RunOptions::track_time).
//  * run_discrete  — the equivalent discrete-time chain the paper states
//                    (Sec. II-A): each step picks one unhappy agent
//                    uniformly at random and flips it iff that makes it
//                    happy. Same absorbing states, integer step counter.
//  * run_synchronous — classic synchronous ACA update (all flippable
//                    agents flip simultaneously), included as a baseline;
//                    may oscillate, so rounds are capped and 2-cycles are
//                    detected.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "core/model.h"

namespace seg {

struct RunOptions {
  // Stop after this many *effective* flips.
  std::uint64_t max_flips = std::numeric_limits<std::uint64_t>::max();
  // Stop when continuous time exceeds this (Glauber only).
  double max_time = std::numeric_limits<double>::infinity();
  // Glauber only: advance the continuous-time clock. The clock runs when
  // this is set or max_time is finite. Untracked, each flip still draws
  // (and discards) its waiting time's 64-bit word, so the flip sequence
  // and the Rng's stream position are bitwise those of a timed run.
  bool track_time = true;
  // If nonzero, invoke on_snapshot every `snapshot_every` flips (and once
  // at termination).
  std::uint64_t snapshot_every = 0;
  std::function<void(const SchellingModel&, std::uint64_t flips, double time)>
      on_snapshot;
};

struct RunResult {
  std::uint64_t flips = 0;     // effective flips performed
  double final_time = 0.0;     // continuous time at stop (Glauber; NaN
                               // when RunOptions::track_time is off)
  bool terminated = false;     // absorbing state reached
  std::uint64_t rounds = 0;    // synchronous only: rounds executed
  bool cycle_detected = false; // synchronous only: 2-cycle oscillation
};

// final_time, and the time on_snapshot sees, is the clock at stop, or
// NaN when the clock did not run (track_time off and max_time infinite):
// a caller that forgets to ask for time reads a loudly wrong value, not 0.
RunResult run_glauber(SchellingModel& model, Rng& rng,
                      const RunOptions& options = {});

RunResult run_discrete(SchellingModel& model, Rng& rng,
                       const RunOptions& options = {});

// max_rounds caps the synchronous sweep count.
RunResult run_synchronous(SchellingModel& model, std::uint64_t max_rounds,
                          const RunOptions& options = {});

}  // namespace seg
