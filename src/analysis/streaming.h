// Streaming observables: every quantity the measurement layer used to
// recompute by an O(n^2) grid rescan per snapshot — type counts and
// magnetization, interface (unlike-neighbor bond) energy, the same-value
// connected-component statistics of analysis/clusters.h, the spatial pair
// correlation of analysis/correlation.h, and a ring-buffer time
// autocorrelation of the magnetization — maintained incrementally from
// flip events in O(1)-ish work per flip.
//
// The engine owns a private copy of the site field, so it never races
// with the producer and works identically whether events arrive
//
//  * inline, as a FlipObserver attached to a serially-driven
//    BinarySpinEngine (SchellingModel::set_flip_observer), or
//  * directly, via apply_set()/apply_flip() for models that are not
//    engine-backed (vacancy sites use value 0, multi-type models use
//    values 0..q-1 — any int8 alphabet works).
//
// No program path runs the engine: campaign replicas and fig1_dynamics
// read the same values from one rescan of the state they report, and
// the sharded sweep engine samples the magnetization itself
// (ParallelOptions::sample_every). Its callers are the tests, the
// perf_core BM_StreamingObservables rows and perfbench's replica mirror.
//
// Exactness contract (pinned by tests/test_streaming_differential.cc):
// after any event sequence, every observable equals the batch recompute
// on the current field — integer counts bitwise, floating aggregates to
// 1e-12 relative (the correlation arithmetic is integer underneath, so
// those match bitwise too).
//
// Cluster maintenance: a DsuRollback forest over an arena of nodes with a
// site -> node indirection. Insertions union in O(alpha). A removal that
// may split its old cluster first runs an O(8) sufficiency test — if the
// departed site's same-value neighbors are joined by one contiguous
// same-value arc of its 8-ring, no split is possible; this resolves the
// bulk of flips instantly. The inconclusive rest run a round-robin
// multi-source BFS from the same-value neighbors, expanded in lockstep,
// so the search ends after O(k * min(smallest detached piece, front
// meeting distance)) sites: detached pieces are split off exactly, and
// the worst case (a filament flip on a lattice-spanning cluster) is
// bounded by the component size — the cost of one batch rescan, paid
// only when the geometry genuinely demands it. The node arena is
// compacted by an epoch-based full rebuild (DsuRollback::reset) once it
// outgrows 2x the site count, keeping memory O(sites) and the rebuild
// cost amortized O(1) per event.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/clusters.h"
#include "analysis/dsu_rollback.h"
#include "lattice/engine.h"

namespace seg {

struct StreamingConfig {
  // Spatial pair-correlation radius, matching pair_correlation(spins, n,
  // max_r); 0 disables the accumulators (and their O(max_r) flip cost).
  int max_r = 0;
  // Lags tracked by the magnetization time-autocorrelation ring buffer;
  // 0 disables sampling. record_sample() costs O(autocorr_window).
  std::size_t autocorr_window = 0;
};

class StreamingObservables final : public FlipObserver {
 public:
  // `field` is the initial configuration (any int8 alphabet), size n*n.
  StreamingObservables(std::vector<std::int8_t> field, int n,
                       StreamingConfig config = {});

  // ---- event intake ----
  void on_flip(std::uint32_t id, std::int8_t new_value) override {
    apply_set(id, new_value);
  }
  // Binary-alphabet convenience: negates the tracked value.
  void apply_flip(std::uint32_t id) {
    apply_set(id, static_cast<std::int8_t>(-field_[id]));
  }
  // Sets site id to `value`, updating every observable incrementally.
  // A no-op when the value is unchanged.
  void apply_set(std::uint32_t id, std::int8_t value);

  // ---- field ----
  int side() const { return n_; }
  std::size_t site_count() const { return field_.size(); }
  const std::vector<std::int8_t>& field() const { return field_; }

  // ---- O(1) scalar observables ----
  std::int64_t count_of(std::int8_t value) const {
    return value_count_[static_cast<std::uint8_t>(value)];
  }
  std::int64_t magnetization() const { return spin_sum_; }
  std::int64_t vacancy_count() const { return count_of(0); }
  // Unordered 4-neighbor pairs of unlike values, == ClusterStats::
  // interface_length.
  std::int64_t interface_length() const { return interface_; }
  std::size_t cluster_count() const { return cluster_count_; }
  std::int64_t largest_cluster() const { return largest_; }
  // Number of clusters (any value class) of exactly `size` sites.
  std::int32_t clusters_of_size(std::int64_t size) const {
    return size_count_[static_cast<std::size_t>(size)];
  }
  double mean_cluster_size() const;
  ClusterStats cluster_stats() const;

  // ---- spatial pair correlation (enabled by config.max_r > 0) ----
  int max_r() const { return config_.max_r; }
  // C(r) for r = 0..max_r; bitwise equal to pair_correlation(field(),
  // side(), max_r()). Empty when disabled.
  std::vector<double> pair_correlation() const;

  // ---- magnetization time autocorrelation (config.autocorr_window) ----
  // Pushes the current magnetization as the next sample; O(window).
  void record_sample();
  std::size_t samples_recorded() const { return sample_count_; }
  // gamma(lag) as defined by autocovariance() in analysis/correlation.h,
  // over the recorded sample stream. Valid for lag < min(samples,
  // window); 0 otherwise.
  double autocovariance(std::size_t lag) const;
  // gamma(lag) / gamma(0); 0 when gamma(0) == 0.
  double autocorrelation(std::size_t lag) const;

  // ---- observability ----
  std::uint64_t rebuild_count() const { return rebuilds_; }
  std::uint64_t split_count() const { return splits_; }

 private:
  void full_rebuild();
  // O(8) no-split sufficiency test: true when the departed site's
  // same-value neighbors lie on one contiguous same-value arc of its
  // 8-ring (they then stay connected without the site).
  bool ring_connected(std::uint32_t id, std::int8_t old_value) const;
  // Updates cluster state for the departure of `id` from value class
  // `old_value` (field_[id] already holds the new value).
  void cluster_remove(std::uint32_t id, std::int8_t old_value);
  void cluster_insert(std::uint32_t id);
  void hist_add(std::int64_t size);
  void hist_remove(std::int64_t size);
  // All four torus neighbors (+x, -x, +y, -y) from a single divmod —
  // the BFS and interface loops are neighbor-bound, so the per-call
  // div/mod of a one-at-a-time helper would dominate them.
  void neighbors4(std::uint32_t id, std::uint32_t out[4]) const {
    const auto un = static_cast<std::uint32_t>(n_);
    const std::uint32_t sites = un * un;
    const std::uint32_t x = id % un;
    const std::uint32_t y = id / un;
    out[0] = x + 1 == un ? id + 1 - un : id + 1;
    out[1] = x == 0 ? id + un - 1 : id - 1;
    out[2] = y + 1 == un ? id + un - sites : id + un;
    out[3] = y == 0 ? id + sites - un : id - un;
  }

  int n_ = 0;
  StreamingConfig config_;
  std::vector<std::int8_t> field_;

  // Scalar aggregates.
  std::int64_t value_count_[256] = {};
  std::int64_t spin_sum_ = 0;
  std::int64_t interface_ = 0;

  // Clusters.
  DsuRollback dsu_;
  std::vector<std::uint32_t> node_of_;  // site -> arena node
  std::vector<std::int32_t> size_count_;  // histogram of cluster sizes
  std::int64_t largest_ = 0;
  std::size_t cluster_count_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t splits_ = 0;

  // Split-search scratch, epoch-stamped so clears are O(1): each entry
  // packs (epoch << 2) | front so a visit touches one cache line. The
  // frontier buffers are members so a split search costs no allocations
  // once their capacity has warmed up.
  std::vector<std::uint32_t> visit_;
  std::uint32_t visit_epoch_ = 0;
  std::vector<std::uint32_t> frontier_[4];

  // Spatial correlation: acc_[r] = sum over sites x and the four lattice
  // directions d of field(x) * field(x + r d); exact integers.
  std::vector<std::int64_t> corr_acc_;

  // Time autocorrelation: ring of the last `window` samples, the first
  // `window` samples ever (for head sums), the lag product sums, and the
  // running total. All exact integers.
  std::vector<std::int64_t> ring_;
  std::vector<std::int64_t> first_;
  std::vector<std::int64_t> lag_prod_;
  std::int64_t sample_total_ = 0;
  std::size_t sample_count_ = 0;
};

}  // namespace seg
