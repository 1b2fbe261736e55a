#include "campaign/stopping.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

namespace seg {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

const char* stop_rule_name(StopRule rule) {
  return kStopRuleNames[static_cast<int>(rule)];
}

bool parse_stop_rule(const std::string& name, StopRule* out) {
  for (std::size_t i = 0; i < std::size(kStopRuleNames); ++i) {
    if (name == kStopRuleNames[i]) {
      *out = static_cast<StopRule>(i);
      return true;
    }
  }
  return false;
}

bool valid_stop_config(const StopConfig& stop, std::size_t replica_cap,
                       const std::vector<std::string>& columns,
                       std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (stop.rule == StopRule::kNone) return true;
  if (!(stop.delta > 0.0)) return fail("stop_delta must be > 0");
  if (!(stop.alpha > 0.0 && stop.alpha < 1.0)) {
    return fail("stop_alpha must be in (0, 1)");
  }
  if (stop.min_replicas == 0) return fail("min_replicas must be >= 1");
  if (replica_cap < stop.min_replicas) {
    return fail("max_replicas (or replicas) must be >= min_replicas");
  }
  if (!(stop.range_hi > stop.range_lo)) {
    return fail("stop_range must have hi > lo");
  }
  if (!stop.metric.empty() &&
      std::find(columns.begin(), columns.end(), stop.metric) ==
          columns.end()) {
    return fail("stop_metric '" + stop.metric +
                "' is not among the campaign metrics");
  }
  return true;
}

double anytime_alpha(std::size_t n, double alpha) {
  if (n == 0) return 0.0;
  const double dn = static_cast<double>(n);
  return alpha / (dn * (dn + 1.0));
}

double hoeffding_half_width(std::size_t n, double alpha, double range) {
  if (n == 0) return kInf;
  const double a_n = anytime_alpha(n, alpha);
  if (a_n <= 0.0) return kInf;
  const double dn = static_cast<double>(n);
  return range * std::sqrt(std::log(2.0 / a_n) / (2.0 * dn));
}

double empirical_bernstein_half_width(std::size_t n, double variance,
                                      double alpha, double range) {
  if (n == 0) return kInf;
  const double a_n = anytime_alpha(n, alpha);
  if (a_n <= 0.0) return kInf;
  const double dn = static_cast<double>(n);
  const double x = std::log(3.0 / a_n);
  const double var = variance > 0.0 ? variance : 0.0;
  return std::sqrt(2.0 * var * x / dn) + 3.0 * range * x / dn;
}

bool operator==(const StopDecision& a, const StopDecision& b) {
  return a.point == b.point && a.replicas == b.replicas &&
         a.rule == b.rule && double_bits(a.bound) == double_bits(b.bound);
}

std::uint64_t decision_trace_hash(const std::vector<StopDecision>& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const StopDecision& d : trace) {
    mix(d.point);
    mix(d.replicas);
    mix(static_cast<std::uint64_t>(d.rule));
    mix(double_bits(d.bound));
  }
  return h;
}

SequentialStopper::SequentialStopper(const StopConfig& config)
    : config_(config) {}

double SequentialStopper::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double SequentialStopper::half_width() const {
  const double range = config_.range_hi - config_.range_lo;
  switch (config_.rule) {
    case StopRule::kNone:
      return kInf;
    case StopRule::kHoeffding:
    case StopRule::kPassRate:
      return hoeffding_half_width(count_, config_.alpha, range);
    case StopRule::kBernstein:
      return empirical_bernstein_half_width(count_, variance(),
                                            config_.alpha, range);
  }
  return kInf;
}

bool SequentialStopper::rule_fires(double h) const {
  if (config_.rule == StopRule::kNone) return false;
  if (count_ < config_.min_replicas) return false;
  if (h <= config_.delta) return true;
  if (config_.rule == StopRule::kPassRate) {
    // The interval certifies which side of the threshold the rate is on.
    const double m = mean();
    if (m - h > config_.threshold || m + h < config_.threshold) return true;
  }
  return false;
}

bool SequentialStopper::observe(double value) {
  if (fired_) return false;
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  const double h = half_width();
  if (rule_fires(h)) {
    fired_ = true;
    bound_ = h;
    return true;
  }
  return false;
}

}  // namespace seg
