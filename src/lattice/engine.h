// The shared incremental engine for binary-spin lattice models
// (SchellingModel, its comfort-capped variant included, and anything with
// an agent state of +1/-1 and a classification driven by the windowed
// +1-count).
//
// The engine owns the spin field, the per-site +1 window counts, a
// per-site membership code (see membership.h), and up to 8 AgentSets.
// flip(id) negates a spin and restores all invariants in one pass over
// the window: counts update via contiguous row spans (window.h), and set
// membership updates fire only for sites whose count crossed a model
// threshold — O(#crossings) set operations instead of (2w+1)^2 probes.
//
// Storage: one *bit* per site (lattice/bitfield.h) with int16 counts, so
// neighbourhoods are capped at kMaxNeighborhoodSize (membership.h) sites.
// Torus and graph mode share it; the torus is an n x n bit field, graph
// nodes one flat row.
//
// Construction: a packed BitField is the one thing an engine is built from
// (models draw it straight into words, or pack and check an explicit
// field). The torus build is three passes over the packed rows:
//  * counts — a vertical running sum of the row bits per column, then a
//    horizontal sliding sum over each wrap-padded row of column sums,
//    written straight into the int16 counts (a non-dense stencil instead
//    adds one shifted, wrap-padded widened row per offset);
//  * codes — one row-wise table lookup per site;
//  * sets — one ascending bulk fill per set slice
//    (AgentSet::fill_ascending). insert() appends and records the
//    position, so inserting every member in ascending id leaves items()
//    ascending with each position its rank; the fill writes exactly
//    that, which keeps sampling (and the golden hashes) identical to an
//    insert-built set. A site lands in its owning shard's slice, so each
//    stripe slice holds its own sites in ascending order.
// Graph mode counts each CSR row off the flat bits and shares the code
// and set passes.
//
// Trajectory compatibility: sites are visited in the legacy stencil
// order and set mutations are applied in ascending set index, which
// reproduces the pre-engine refresh_membership() mutation sequence
// exactly; golden-seed tests pin this down.
//
// Sharding: when constructed with a non-trivial ShardLayout, every
// logical set is split into one AgentSet per shard and a site's
// membership always lives in its owning shard's sub-set. Flips at
// layout-interior sites then touch only that shard's storage (spins,
// counts, codes, sub-sets), which is what lets the parallel sweep engine
// (core/parallel_dynamics.h) run interior flips of distinct shards
// concurrently without locks. With the default trivial layout the engine
// is bit-for-bit the serial engine. Stripes own whole rows and every row
// starts a fresh 64-bit spin word, so torus flips of distinct shards never
// share a word and stay plain xors.
//
// Graph mode: the second constructor takes a GraphTopology (graph/) in
// place of the torus geometry. Neighborhood iteration becomes a CSR row
// walk, shard ownership/boundaries come from a GraphPartition instead of
// a ShardLayout, and — because neighborhood sizes vary per node — the
// single MembershipTable becomes one table per neighborhood-size class,
// built from a code functor (N, plus, count) -> code. Graph mode skips
// the span/break machinery; a flip walks row(id) and touch-updates each
// entry, which on a torus-built graph is the exact legacy touch order, so
// torus-as-graph trajectories are bitwise identical to the native span
// engine (the graph differential suite pins all golden hashes). When
// partition parts interleave within a 64-node word, flips go through an
// atomic fetch-xor (BitField::flat_flip_atomic). Everything downstream —
// agent sets, observers, the parallel sweep engine — works unchanged
// because flips at partition-interior nodes still write only their own
// part's storage.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

// The flip kernel has an AVX-512BW specialization (one masked zmm
// read-modify-write per window row, vpcmpw break detection straight into
// a k-mask), selected at runtime via cpuid so the binary stays portable.
// SEG_NO_POPCNT (the portable-build knob) disables every CPU-specific
// fast path, this one included.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(SEG_NO_POPCNT)
#define SEG_ENGINE_AVX512 1
#endif

#include "graph/partition.h"
#include "graph/topology.h"
#include "grid/point.h"
#include "lattice/agent_set.h"
#include "lattice/bitfield.h"
#include "lattice/membership.h"
#include "lattice/sharded.h"
#include "lattice/storage.h"  // resolve_storage(), for perfbench only
#include "lattice/window.h"
#include "obs/telemetry.h"
#include "util/seg_assert.h"

namespace seg {

// Flip-event subscriber (analysis/streaming.h implements it). The engine
// invokes on_flip() after every completed flip — counts, codes, and set
// memberships are already restored when the callback runs, and spin(id)
// holds the new value. Observers must not mutate the engine from inside
// the callback.
//
// Thread-safety contract: the callback fires on whichever thread called
// flip(). The sharded sweep engine (core/parallel_dynamics.h) runs
// phase-A flips concurrently, so an observer must NOT be attached to a
// sharded engine driven by the parallel sweeps (it asserts so); that
// engine samples the magnetization itself (ParallelOptions::
// sample_every). No program path attaches an observer: the tests, the
// perf_core streaming rows and perfbench's replica mirror do.
class FlipObserver {
 public:
  virtual ~FlipObserver() = default;
  virtual void on_flip(std::uint32_t id, std::int8_t new_spin) = 0;
};

// Graph-mode membership rule: code for an agent on a node whose
// neighborhood holds `neighborhood_size` sites (self included), of the
// given spin sign, with `count` +1 agents in the neighborhood. Evaluated
// once per neighborhood-size class at construction, never on a flip.
using GraphCodeFn =
    std::function<std::uint8_t(int neighborhood_size, bool plus, int count)>;

class BinarySpinEngine {
 public:
  // `offsets` is the full stencil including (0,0). When `dense_window` is
  // true the stencil must be the full (2w+1)^2 Moore window and flips take
  // the span fast path; otherwise (e.g. von Neumann) flips walk the
  // offsets with wrapped indexing. `bits` is the n x n field; the stencil
  // holds at most kMaxNeighborhoodSize sites (refused otherwise), every
  // offset inside the radius-w box.
  // `layout` must be trivial or partition the same torus with margin w.
  BinarySpinEngine(int n, int w, bool dense_window,
                   std::vector<Point> offsets, BitField bits,
                   MembershipTable table, int set_count,
                   ShardLayout layout = ShardLayout());

  // Graph mode: spins live on `graph`'s nodes (`bits` is the 1 x
  // node_count() field), and `code_of` defines the membership rule per
  // neighborhood-size class.
  // `partition` plays the ShardLayout role (default: trivial, serial).
  // Every neighbourhood must fit kMaxNeighborhoodSize (refused otherwise).
  BinarySpinEngine(std::shared_ptr<const GraphTopology> graph,
                   BitField bits, const GraphCodeFn& code_of,
                   int set_count, GraphPartition partition = GraphPartition());

  int side() const { return geometry_.side(); }
  int radius() const { return geometry_.radius(); }
  int window_size() const { return static_cast<int>(offsets_.size()); }
  std::size_t size() const {
    return graph_ ? graph_->node_count() : geometry_.site_count();
  }
  const WindowGeometry& geometry() const { return geometry_; }

  bool graph_mode() const { return graph_ != nullptr; }
  // Null in torus mode.
  const GraphTopology* graph() const { return graph_.get(); }
  // Per-node stencil size (self included): the membership-threshold N for
  // node `id`. Uniform and equal to window_size() in torus mode.
  int neighborhood_size(std::uint32_t id) const {
    return graph_ ? graph_->neighborhood_size(id) : window_size();
  }
  // True iff a flip at `id` can write another shard's storage — the
  // question the parallel sweep engine asks, unified across both
  // sharding schemes (torus stripes and graph partitions).
  bool shard_boundary(std::uint32_t id) const {
    return graph_ ? partition_.boundary(id) : layout_.boundary(id);
  }

  std::int8_t spin(std::uint32_t id) const {
    return graph_ ? bits_.flat_spin(id) : bits_.spin(id);
  }
  // Snapshot of the spin field as one byte per site.
  std::vector<std::int8_t> spins_snapshot() const { return bits_.unpack(); }
  // Copy of the live bit field: n x n on the torus, 1 x nodes on a graph.
  BitField packed_spins() const { return bits_; }
  // Number of +1 sites (a whole-field popcount).
  std::int64_t plus_total() const { return bits_.count_all(); }

  std::int32_t plus_count(std::uint32_t id) const { return plus_count_[id]; }
  std::uint8_t code(std::uint32_t id) const { return status_[id]; }
  const std::vector<std::uint8_t>& codes() const { return status_; }
  const std::vector<Point>& offsets() const { return offsets_; }

  // Shard 0's slice of set s — the whole set under the trivial layout.
  // Serial callers (every model's hot path) use this form; sharded
  // engines must address slices explicitly via set(s, shard).
  const AgentSet& set(int s) const { return sets_[s * shard_count_]; }
  AgentSet& set(int s) { return sets_[s * shard_count_]; }

  int shard_count() const { return shard_count_; }
  const AgentSet& set(int s, int shard) const {
    return sets_[s * shard_count_ + shard];
  }
  AgentSet& set(int s, int shard) { return sets_[s * shard_count_ + shard]; }
  // Membership of id in logical set s, looked up in its owning shard.
  bool in_set(int s, std::uint32_t id) const {
    return sets_[s * shard_count_ + site_shard(id)].contains(id);
  }
  // Total size of logical set s across shards.
  std::size_t set_size(int s) const {
    std::size_t total = 0;
    for (int shard = 0; shard < shard_count_; ++shard) {
      total += sets_[s * shard_count_ + shard].size();
    }
    return total;
  }

  // Negates spin(id) and restores counts, codes, and set memberships,
  // then notifies the attached observer (if any).
  void flip(std::uint32_t id) {
    // Safe under concurrent phase-A flips: the counter add lands in the
    // calling thread's own telemetry slab. Runtime-disabled cost is one
    // relaxed load + branch, pinned <= 2% on BM_Flip by BM_FlipTelemetry.
    SEG_COUNT("engine.flips", 1);
    flip_impl(id);
    if (observer_ != nullptr) observer_->on_flip(id, spin(id));
  }

  // At most one observer; nullptr detaches. See the FlipObserver contract
  // above for the threading rules.
  void set_observer(FlipObserver* observer) { observer_ = observer; }
  FlipObserver* observer() const { return observer_; }

  // Full recount audit: counts match the stencil, codes match the table,
  // memberships match the codes. O(n^2 N).
  bool check_invariants() const;

 private:
  // Membership codes are piecewise-constant in the count; a +-1 count
  // change can alter the code only when the new count lands exactly on a
  // piece boundary. The detection set is the union of both spin signs'
  // boundaries, so the hot loop compares counts against register
  // constants only — no per-cell spin load. A hit may be a false positive
  // for the other spin sign; touch() resolves it against the exact table
  // (and does nothing when the code is unchanged). Every current model
  // has <= 4 boundaries per spin sign, <= 8 in the union; flip_impl
  // dispatches a 4-compare kernel when the union fits in 4.
  static constexpr int kMaxBreaks = 8;

  void init_counts();
  void init_codes();
  void fill_sets();
  void init_breaks();
  void init_graph(const GraphCodeFn& code_of);
  void flip_impl(std::uint32_t id);
  void flip_graph(std::uint32_t id);

  // The dense span fast path, instantiated per compare width: 4 or 8
  // break compares depending on how many boundaries the model has.
  template <int NB>
  void flip_dense_sparse(std::uint32_t id, std::int32_t delta);

#if SEG_ENGINE_AVX512
  // AVX-512BW specialization of the dense fast path: one masked zmm RMW
  // per window row segment (32 int16 lanes), break hits read directly
  // off vpcmpw k-masks — no second rescan pass. Touch order is identical
  // to flip_dense_sparse (legacy stencil order), so trajectories stay
  // bitwise identical; test_bitfield pins this differentially.
  __attribute__((target("avx512f,avx512bw"))) void flip_avx512(
      std::uint32_t id, std::int32_t delta);
#endif

  // Owning shard of a site under whichever sharding scheme is active.
  int site_shard(std::uint32_t id) const {
    if (shard_count_ == 1) return 0;
    return graph_ ? partition_.part_of(id) : layout_.shard_of(id);
  }

  // Moves id to the set memberships of code `want` (nothing to do when
  // the code is unchanged).
  void apply_code(std::uint32_t id, std::uint8_t want) {
    const std::uint8_t have = status_[id];
    if (want == have) return;
    status_[id] = want;
    // One branch on the trivial case keeps the serial hot path free of
    // the per-row shard lookup.
    const int shard = site_shard(id);
    for (int s = 0; s < set_count_; ++s) {
      const std::uint8_t bit = static_cast<std::uint8_t>(1u << s);
      if ((have ^ want) & bit) {
        AgentSet& target = sets_[s * shard_count_ + shard];
        if (want & bit) {
          SEG_ASSERT(!target.contains(id),
                     "site " << id << " already in set " << s << " shard "
                             << shard << " on insert");
          target.insert(id);
        } else {
          SEG_ASSERT(target.contains(id),
                     "site " << id << " absent from set " << s << " shard "
                             << shard << " on erase");
          target.erase(id);
        }
      }
    }
  }

  // Updates one site given its new count; shared by both flip paths.
  void touch(std::uint32_t id, std::int32_t new_count) {
    SEG_ASSERT(new_count >= 0 && new_count <= window_size(),
               "site " << id << " count " << new_count
                       << " escaped [0, " << window_size()
                       << "] after a window update");
    apply_code(id,
               table_.data()[table_.spin_offset(bits_.spin(id)) + new_count]);
  }

  // Graph-mode twin of touch(): same contract, but the code lookup goes
  // through the node's neighborhood-size class table.
  void touch_graph(std::uint32_t id, std::int32_t new_count) {
    SEG_ASSERT(new_count >= 0 && new_count <= neighborhood_size(id),
               "node " << id << " count " << new_count << " escaped [0, "
                       << neighborhood_size(id) << "] after a flip");
    const MembershipTable& table = class_tables_[table_of_[id]];
    apply_code(id, table.data()[table.spin_offset(bits_.flat_spin(id)) +
                                new_count]);
  }

  WindowGeometry geometry_;
  ShardLayout layout_;
  int shard_count_;
  bool dense_window_;
  bool sparse_crossings_;
  // Graph mode only: route bit flips through atomic fetch-xor because
  // graph parts interleave within some 64-node word and phase-A flips may
  // hit it concurrently. Torus stripes never share a word.
  bool atomic_bits_ = false;
  // Dense + sparse-crossings + cpuid(avx512bw): flips route to
  // flip_avx512.
  bool simd_kernel_ = false;
  int break_count_ = 0;
  // Counts c where code(c) != code(c - 1) for either spin sign, padded
  // with an unreachable sentinel.
  std::int32_t breaks_[kMaxBreaks];
  int set_count_;
  std::vector<Point> offsets_;
  MembershipTable table_;
  BitField bits_;
  std::vector<std::int16_t> plus_count_;
  std::vector<std::uint8_t> status_;
  std::vector<AgentSet> sets_;
  FlipObserver* observer_ = nullptr;

  // Graph mode only. One MembershipTable per distinct neighborhood size
  // (class_tables_), with table_of_[id] indexing each node's class —
  // uniform-degree graphs (torus-as-graph, random regular) collapse to a
  // single table, so the touch cost matches the torus path.
  std::shared_ptr<const GraphTopology> graph_;
  GraphPartition partition_;
  std::vector<MembershipTable> class_tables_;
  std::vector<std::uint16_t> table_of_;
};

}  // namespace seg
