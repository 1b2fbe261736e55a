// Anytime-valid sequential stopping rules for campaign replicas.
//
// A campaign point keeps scheduling replicas until its stopping rule
// certifies — at confidence 1 - alpha simultaneously over every sample
// size — that the watched metric's mean is known to the target
// precision. Two confidence-sequence bounds are provided for metrics
// bounded in a known range, plus a decision rule for binary outcomes:
//
//  * Hoeffding: the half-width depends on n alone (distribution-free),
//    so every point of a campaign stops at the same replica count; it is
//    the conservative reference rule.
//  * Empirical Bernstein (Audibert et al. / Maurer-Pontil): the
//    half-width shrinks with the observed sample variance, so
//    near-deterministic points (deep inside a phase) stop after a
//    handful of replicas while points near the segregation threshold
//    keep sampling — the source of adaptive-campaign replica savings.
//  * Pass rate: for {0,1} outcomes; stops when the Bernoulli confidence
//    sequence certifies the pass probability lies on one side of a
//    decision threshold, or is pinned to half-width <= delta.
//
// Anytime validity comes from a union bound with the spending schedule
// alpha_n = alpha / (n (n+1)), which telescopes to exactly alpha over
// all n: P(exists n >= 1: |mean_n - mu| > h_n) <= alpha for any iid
// stream bounded in the declared range. tests/test_stopping.cc verifies
// this coverage empirically over thousands of simulated streams.
//
// Determinism: a stopper folds replica values in replica order only
// (campaign.cc advances a per-point frontier over the global replica
// indices), so the stop decision is a function of the campaign seed
// alone — never of thread count, scheduling, or completion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace seg {

enum class StopRule { kNone, kHoeffding, kBernstein, kPassRate };

// Spec-text names, indexed by StopRule.
inline constexpr const char* kStopRuleNames[] = {"none", "hoeffding",
                                                 "bernstein", "pass_rate"};

const char* stop_rule_name(StopRule rule);
bool parse_stop_rule(const std::string& name, StopRule* out);

// Stopping configuration of a campaign (ScenarioSpec::stop). Only read
// when rule != kNone; every field has a spec key of the same name
// (prefixed "stop_" where the bare name would be ambiguous).
struct StopConfig {
  StopRule rule = StopRule::kNone;
  // Target confidence-sequence half-width; the rule fires the first time
  // the bound drops to delta or below.
  double delta = 0.05;
  // Anytime miscoverage budget of the confidence sequence.
  double alpha = 0.05;
  // Replica floor before the rule may fire (spec key "min_replicas").
  std::size_t min_replicas = 2;
  // Replica cap per point (spec key "max_replicas"); 0 = the spec's
  // `replicas` value. Defines the campaign's global index layout, so it
  // is part of the checkpoint identity.
  std::size_t max_replicas = 0;
  // Known range of the watched metric; the bounds are valid only for
  // metrics that actually live inside it.
  double range_lo = 0.0;
  double range_hi = 1.0;
  // Pass-rate decision boundary (spec key "stop_threshold").
  double threshold = 0.5;
  // Watched metric name (spec key "stop_metric"); empty = the campaign's
  // first metric.
  std::string metric;
};

// The one consistency check of a stopping config, shared by
// ScenarioSpec validation and every campaign builder: with a rule set,
// delta > 0, alpha in (0, 1), 1 <= min_replicas <= `replica_cap` (the
// spec's layout_replicas()), hi > lo, and a watched metric among the
// campaign's `columns`. Takes the columns rather than consulting the
// metric registry because custom replica fns (the percolation builtins)
// emit columns the registry does not know. Always true for rule kNone.
bool valid_stop_config(const StopConfig& stop, std::size_t replica_cap,
                       const std::vector<std::string>& columns,
                       std::string* error = nullptr);

// Per-observation miscoverage budget alpha / (n (n + 1)).
double anytime_alpha(std::size_t n, double alpha);

// Time-uniform Hoeffding half-width for an iid stream bounded in a range
// of width `range`: h_n = range * sqrt(log(2 / alpha_n) / (2 n)).
double hoeffding_half_width(std::size_t n, double alpha, double range);

// Time-uniform empirical-Bernstein half-width: with x = log(3 / alpha_n),
// h_n = sqrt(2 * variance * x / n) + 3 * range * x / n. `variance` is the
// unbiased sample variance of the first n observations.
double empirical_bernstein_half_width(std::size_t n, double variance,
                                      double alpha, double range);

// One stop decision of an adaptive campaign: point `point` stopped after
// folding `replicas` replicas, with the rule's bound at `bound`. The
// ordered-by-point list of decisions is the campaign's decision trace,
// persisted in the checkpoint and hashed into its trailer.
struct StopDecision {
  std::uint32_t point = 0;
  std::uint32_t replicas = 0;
  StopRule rule = StopRule::kNone;
  double bound = 0.0;  // compared bitwise: the fold is deterministic
};

bool operator==(const StopDecision& a, const StopDecision& b);
inline bool operator!=(const StopDecision& a, const StopDecision& b) {
  return !(a == b);
}

// FNV-1a over the decision entries (doubles by bit pattern); recorded in
// the checkpoint so a resumed run can prove it replays the same trace.
std::uint64_t decision_trace_hash(const std::vector<StopDecision>& trace);

// Sequential state of one campaign point: folds watched-metric values in
// replica order (Welford) and decides when to stop. observe() must be
// called with replica 0, 1, 2, ... of the point, in order.
class SequentialStopper {
 public:
  SequentialStopper() = default;
  explicit SequentialStopper(const StopConfig& config);

  // Folds the next replica's watched value. Returns true exactly once:
  // on the observation that fires the rule. Ignored after firing.
  bool observe(double value);

  bool fired() const { return fired_; }
  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Unbiased sample variance (n-1 denominator); 0 below 2 observations.
  double variance() const;
  // Current confidence-sequence half-width; +infinity before the first
  // observation and for rule kNone.
  double half_width() const;
  // The half-width recorded when the rule fired (+infinity before).
  double bound_at_stop() const { return bound_; }

 private:
  bool rule_fires(double h) const;

  StopConfig config_;
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  bool fired_ = false;
  double bound_ = std::numeric_limits<double>::infinity();  // set on fire
};

}  // namespace seg
