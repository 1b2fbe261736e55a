// Built-in campaigns: the paper's bench experiments expressed as scenario
// definitions so the bench drivers and the campaign_runner CLI share one
// source of truth (same spec + same campaign seed => same aggregates,
// bitwise, at any thread count).
//
//  * phase_diagram       — the (tau, p) phase portrait of the concluding
//                          remarks (bench/exp_phase_diagram).
//  * region_size         — E[M], E[M'] versus neighborhood size N for the
//                          Theorem 1/2 exponential-growth fits
//                          (bench/exp_region_size); the grid side is tied
//                          to w as n = max(64, 24w).
//  * percolation_stretch — supercritical chemical-distance stretch,
//                          Theorem 4 (bench/exp_percolation, part 1).
//  * percolation_radius  — subcritical cluster-radius decay, Theorem 5
//                          (bench/exp_percolation, part 2).
//  * graph_topologies    — the three synthetic non-torus families
//                          (lollipop, random_regular, small_world) through
//                          the engine's graph mode, scalar metrics only.
//
// The percolation campaigns reuse the grid axes with their natural
// reinterpretation (n is the box side L, p the site-open probability) and
// supply custom replica functions over percolation/.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace seg {

struct BuiltinCampaign {
  ScenarioSpec spec;
  std::vector<ScenarioPoint> points;     // expanded (and possibly adjusted)
  std::vector<std::string> metric_names;
  ReplicaFn replica;
};

// Optional overrides of a builtin's spec for programmatic callers (the
// bench drivers, perfbench); 0 keeps the default. The campaign_runner CLI
// overrides any spec key instead, through ScenarioSpec::set.
struct BuiltinOverrides {
  int n = 0;            // grid side (n = {n}); box side L for percolation
  int w = 0;            // horizon (w = {w})
  std::size_t replicas = 0;
  // Sequential stopping config (campaign/stopping.h); rule kNone keeps
  // the campaign fixed-replica.
  StopConfig stop;
};

std::vector<std::string> builtin_campaign_names();

// The named builtin's spec with `overrides` applied; false if `name` is
// not a builtin.
bool builtin_spec(const std::string& name, const BuiltinOverrides& overrides,
                  ScenarioSpec* out);

// Expands `spec` into a runnable campaign the way the named builtin does
// (its point adjustments and replica fn); an empty `builtin` runs the
// spec as written with the Schelling replica. False, with the reason in
// *error, if `builtin` is unknown, the spec is invalid for it, or its
// edge_list file cannot be loaded or has fewer nodes than `shards`.
bool build_campaign(const std::string& builtin, const ScenarioSpec& spec,
                    BuiltinCampaign* out, std::string* error = nullptr);

// builtin_spec() then build_campaign().
bool make_builtin_campaign(const std::string& name,
                           const BuiltinOverrides& overrides,
                           BuiltinCampaign* out);

}  // namespace seg
