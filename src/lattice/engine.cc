#include "lattice/engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_map>

#if SEG_ENGINE_AVX512
#include <immintrin.h>
#endif

namespace seg {

namespace {

#if SEG_ENGINE_AVX512
bool cpu_has_avx512bw() {
  static const bool ok = __builtin_cpu_supports("avx512bw");
  return ok;
}
#endif

// kSpread[b] holds bit i of byte b in lane i: it widens packed row bits to
// int16 lanes eight at a time, so count updates are plain lane adds.
struct ByteLanes {
  std::int16_t lane[8];
};
constexpr std::array<ByteLanes, 256> kSpread = [] {
  std::array<ByteLanes, 256> spread{};
  for (int b = 0; b < 256; ++b) {
    for (int i = 0; i < 8; ++i) {
      spread[b].lane[i] = static_cast<std::int16_t>((b >> i) & 1);
    }
  }
  return spread;
}();

// The int16 counts hold kMaxNeighborhoodSize at most. Parameter, spec and
// edge-list validation refuse larger neighbourhoods with a message; this
// is the backstop for direct engine users, on in every build type.
void require_int16_counts(int size, const std::string& who) {
  static_assert(kMaxNeighborhoodSize ==
                std::numeric_limits<std::int16_t>::max());
  if (size <= kMaxNeighborhoodSize) return;
  std::fprintf(stderr, "BinarySpinEngine: %s\n",
               over_neighborhood_limit(who, size).c_str());
  std::abort();
}

}  // namespace

BinarySpinEngine::BinarySpinEngine(int n, int w, bool dense_window,
                                   std::vector<Point> offsets, BitField bits,
                                   MembershipTable table, int set_count,
                                   ShardLayout layout)
    : geometry_(n, w),
      layout_(std::move(layout)),
      shard_count_(layout_.shard_count()),
      dense_window_(dense_window),
      set_count_(set_count),
      offsets_(std::move(offsets)),
      table_(std::move(table)),
      bits_(std::move(bits)),
      plus_count_(geometry_.site_count(), 0),
      status_(geometry_.site_count(), 0) {
  assert(set_count_ >= 1 && set_count_ <= 8);
  assert(bits_.rows() == n && bits_.cols() == n);
  assert(!dense_window_ ||
         static_cast<int>(offsets_.size()) == geometry_.window_size());
  assert(layout_.compatible(n, w));
  require_int16_counts(window_size(), "every site");
  sets_.reserve(static_cast<std::size_t>(set_count_) * shard_count_);
  for (int i = 0; i < set_count_ * shard_count_; ++i) {
    // Each shard slice spans only its shard's rows, so sharded set
    // memory stays O(sites) overall.
    const auto [base, extent] = layout_.id_window(i % shard_count_);
    if (extent == 0) {
      sets_.emplace_back(geometry_.site_count());
    } else {
      sets_.emplace_back(extent, base);
    }
  }
  init_counts();
  init_codes();
  fill_sets();
  init_breaks();
#if SEG_ENGINE_AVX512
  simd_kernel_ = dense_window_ && sparse_crossings_ && cpu_has_avx512bw();
#endif
}

BinarySpinEngine::BinarySpinEngine(std::shared_ptr<const GraphTopology> graph,
                                   BitField bits, const GraphCodeFn& code_of,
                                   int set_count, GraphPartition partition)
    // geometry_ and table_ are torus-path state; graph mode never consults
    // them, but neither type has a default constructor, so both get inert
    // placeholders (the smallest valid window, an empty table).
    : geometry_(3, 1),
      shard_count_(partition.part_count()),
      dense_window_(false),
      sparse_crossings_(false),
      set_count_(set_count),
      table_(0, [](bool, int) { return std::uint8_t{0}; }),
      bits_(std::move(bits)),
      plus_count_(static_cast<std::size_t>(bits_.cols()), 0),
      status_(static_cast<std::size_t>(bits_.cols()), 0),
      graph_(std::move(graph)),
      partition_(std::move(partition)) {
  assert(graph_ != nullptr);
  assert(set_count_ >= 1 && set_count_ <= 8);
  assert(bits_.rows() == 1 &&
         static_cast<std::size_t>(bits_.cols()) == graph_->node_count());
  assert(partition_.compatible(*graph_));
  for (int k = 0; k < kMaxBreaks; ++k) breaks_[k] = -2;
  // Parts are arbitrary node sets, so a 64-node word may hold two.
  for (std::uint32_t v = 1; v < size() && !atomic_bits_; ++v) {
    atomic_bits_ = (v & 63) != 0 &&
                   partition_.part_of(v) != partition_.part_of(v - 1);
  }
  init_graph(code_of);
}

void BinarySpinEngine::init_graph(const GraphCodeFn& code_of) {
  const std::size_t nodes = graph_->node_count();
  // One membership table per distinct neighborhood size. Uniform-degree
  // graphs get exactly one, so the per-touch cost matches the torus path
  // (one extra index load).
  table_of_.resize(nodes);
  std::unordered_map<int, std::uint16_t> class_of;
  for (std::uint32_t v = 0; v < nodes; ++v) {
    const int nsize = graph_->neighborhood_size(v);
    const auto [it, inserted] = class_of.try_emplace(
        nsize, static_cast<std::uint16_t>(class_tables_.size()));
    if (inserted) {
      require_int16_counts(nsize, "node " + std::to_string(v));
      class_tables_.emplace_back(nsize, [&](bool plus, int count) {
        return code_of(nsize, plus, count);
      });
    }
    table_of_[v] = it->second;
  }
  // Graph-partition parts are not contiguous id ranges, so every shard
  // slice must span the full id range — set memory is O(nodes * shards),
  // unlike the windowed stripe slices. Fine at realistic shard counts.
  sets_.reserve(static_cast<std::size_t>(set_count_) * shard_count_);
  for (int i = 0; i < set_count_ * shard_count_; ++i) {
    sets_.emplace_back(nodes);
  }
  for (std::uint32_t v = 0; v < nodes; ++v) {
    const auto [row, len] = graph_->row(v);
    std::int32_t plus = 0;
    for (int i = 0; i < len; ++i) plus += bits_.flat_test(row[i]);
    plus_count_[v] = static_cast<std::int16_t>(plus);
    status_[v] = class_tables_[table_of_[v]].code(bits_.flat_test(v), plus);
  }
  // Ascending id, as on the torus, so initial set contents are
  // permutation-identical between the two modes.
  fill_sets();
}

void BinarySpinEngine::init_breaks() {
  // MembershipTable::breaks() enumerates the crossing counts; the flip
  // fast path needs them in registers, padded to a fixed compare width.
  const std::vector<std::int32_t> found = table_.breaks();
  sparse_crossings_ = found.size() <= static_cast<std::size_t>(kMaxBreaks);
  break_count_ =
      sparse_crossings_ ? static_cast<int>(found.size()) : kMaxBreaks;
  // Sentinel no count can reach: counts stay in [0, N] and the flip loop
  // compares against break or break - 1.
  for (int k = 0; k < kMaxBreaks; ++k) {
    breaks_[k] = sparse_crossings_ && k < break_count_ ? found[k] : -2;
  }
}

void BinarySpinEngine::init_counts() {
  const int n = geometry_.side();
  const int w = geometry_.radius();
  // Row y + dy with |dy| <= w < n, wrapped at the row level only.
  const auto wrap_row = [n](int y) {
    return y < 0 ? y + n : y >= n ? y - n : y;
  };
  // lanes[x] += sign * bit x of row y, over whole words: `lanes` spans
  // words_per_row() * 64 entries, and padding bits are zero.
  const auto add_row = [&](std::int16_t* lanes, int y, std::int16_t sign) {
    const std::uint64_t* words = bits_.row_words(wrap_row(y));
    for (int wi = 0; wi < bits_.words_per_row(); ++wi) {
      for (int k = 0; k < 8; ++k) {
        const ByteLanes& add = kSpread[(words[wi] >> (8 * k)) & 0xffu];
        std::int16_t* out = lanes + wi * 64 + k * 8;
        for (int i = 0; i < 8; ++i) {
          out[i] = static_cast<std::int16_t>(out[i] + sign * add.lane[i]);
        }
      }
    }
  };
  const std::size_t lane_count =
      static_cast<std::size_t>(bits_.words_per_row()) * 64;
  if (dense_window_) {
    // Separable box sum, O(n^2) independent of w. column[x] is the +1
    // count of column x over rows y-w..y+w, kept by a running sum; row y's
    // counts are a horizontal sliding sum over those column sums,
    // wrap-padded by w on both sides.
    std::vector<std::int16_t> column(lane_count, 0);
    std::vector<std::int16_t> padded(static_cast<std::size_t>(n) + 2 * w);
    for (int dy = -w; dy <= w; ++dy) add_row(column.data(), dy, 1);
    for (int y = 0; y < n; ++y) {
      std::copy(column.begin(), column.begin() + n, padded.begin() + w);
      std::copy(column.begin() + n - w, column.begin() + n, padded.begin());
      std::copy(column.begin(), column.begin() + w, padded.begin() + w + n);
      std::int16_t* out =
          plus_count_.data() + static_cast<std::size_t>(y) * n;
      std::int16_t sum = 0;
      for (int i = 0; i <= 2 * w; ++i) sum += padded[i];
      out[0] = sum;
      for (int x = 1; x < n; ++x) {
        sum += padded[x + 2 * w] - padded[x - 1];
        out[x] = sum;
      }
      add_row(column.data(), y + w + 1, 1);
      add_row(column.data(), y - w, -1);
    }
    return;
  }
  // Generic stencil: every row widened once to int16 lanes, wrap-padded by
  // w on both sides, then one shifted add per offset — O(n^2 N) at
  // construction only, with no per-element wrap.
  const std::size_t row_stride = lane_count + 2 * w;
  std::vector<std::int16_t> widened(row_stride * n, 0);
  for (int y = 0; y < n; ++y) {
    std::int16_t* row = widened.data() + row_stride * y;
    add_row(row + w, y, 1);
    std::copy(row + n, row + n + w, row);
    std::copy(row + w, row + 2 * w, row + w + n);
  }
  for (const Point o : offsets_) {
    assert(o.x >= -w && o.x <= w && o.y >= -w && o.y <= w);
    for (int y = 0; y < n; ++y) {
      const std::int16_t* src = widened.data() +
                                row_stride * wrap_row(y + o.y) + w + o.x;
      std::int16_t* dst =
          plus_count_.data() + static_cast<std::size_t>(y) * n;
      for (int x = 0; x < n; ++x) dst[x] += src[x];
    }
  }
}

void BinarySpinEngine::init_codes() {
  const int n = geometry_.side();
  // Code tables by spin bit: [0] for -1 sites, [1] for +1 sites.
  const std::uint8_t* by_bit[2] = {
      table_.data() + table_.spin_offset(-1),
      table_.data() + table_.spin_offset(+1)};
  for (int y = 0; y < n; ++y) {
    const std::uint64_t* words = bits_.row_words(y);
    const std::size_t row = static_cast<std::size_t>(y) * n;
    for (int x0 = 0; x0 < n; x0 += 64) {
      const std::uint64_t word = words[x0 >> 6];
      const std::int16_t* count = plus_count_.data() + row + x0;
      std::uint8_t* code = status_.data() + row + x0;
      const int len = std::min(64, n - x0);
      for (int b = 0; b < len; ++b) {
        code[b] = by_bit[(word >> b) & 1u][count[b]];
      }
    }
  }
}

void BinarySpinEngine::fill_sets() {
  for (int s = 0; s < set_count_; ++s) {
    for (int shard = 0; shard < shard_count_; ++shard) {
      sets_[s * shard_count_ + shard].fill_ascending(
          status_.data(), static_cast<std::uint8_t>(1u << s),
          [&](std::uint32_t id) { return site_shard(id) == shard; });
    }
  }
}

template <int NB>
void BinarySpinEngine::flip_dense_sparse(std::uint32_t id,
                                         std::int32_t delta) {
  using CountT = std::int16_t;
  // A code changes when the count crosses a piece boundary: arriving at
  // `break` going up, or at `break - 1` going down. Two passes per row
  // span — a count update and an any-hit OR-reduction, both against
  // register constants only, both auto-vectorizable — and a rescan of
  // the (rare) spans that contain a crossing. The sentinel padding (-2,
  // shifted to -3 going down) can never equal a count in [0, N], so the
  // 4-compare kernel is exact whenever the model has <= 4 boundaries.
  const std::int32_t shift = delta < 0 ? 1 : 0;
  CountT b[NB];
  for (int k = 0; k < NB; ++k) {
    b[k] = static_cast<CountT>(breaks_[k] - shift);
  }
  const CountT d = static_cast<CountT>(delta);
  geometry_.for_each_span(id, [&](std::size_t base, int len) {
    SEG_ASSERT(base + static_cast<std::size_t>(len) <= size(),
               "window span [" << base << ", " << base + len
                               << ") of site " << id
                               << " escapes the lattice");
    CountT* cnt = plus_count_.data() + base;
    // The flipped agent itself changes code by changing sign, not by
    // crossing a count boundary — its span always rescans, and the
    // rescan must hit it at its window position to keep the legacy set
    // mutation order.
    const bool has_center =
        id >= base && id < base + static_cast<std::size_t>(len);
    unsigned any = has_center ? 1 : 0;
    for (int i = 0; i < len; ++i) {
      const CountT c = static_cast<CountT>(cnt[i] + d);
      cnt[i] = c;
      unsigned hit = 0;
      for (int k = 0; k < NB; ++k) {
        hit |= static_cast<unsigned>(c == b[k]);
      }
      any |= hit;
    }
    if (any) {
      for (int i = 0; i < len; ++i) {
        const auto j = static_cast<std::uint32_t>(base + i);
        const CountT c = cnt[i];
        unsigned hit = j == id ? 1u : 0u;
        for (int k = 0; k < NB; ++k) {
          hit |= static_cast<unsigned>(c == b[k]);
        }
        if (hit) touch(j, c);
      }
    }
  });
}

void BinarySpinEngine::flip_impl(std::uint32_t id) {
  SEG_ASSERT(id < size(),
             "flip of out-of-range site " << id << " (lattice has "
                                          << size() << " sites)");
  if (graph_) {
    flip_graph(id);
    return;
  }
  const std::int32_t delta = bits_.test(id) ? -1 : +1;
  bits_.flip(id);
#if SEG_ENGINE_AVX512
  if (simd_kernel_) {
    flip_avx512(id, delta);
    return;
  }
#endif
  if (dense_window_ && sparse_crossings_) {
    if (break_count_ <= 4) {
      flip_dense_sparse<4>(id, delta);
    } else {
      flip_dense_sparse<8>(id, delta);
    }
    return;
  }
  if (dense_window_) {
    geometry_.for_each_span(id, [&](std::size_t base, int len) {
      for (int i = 0; i < len; ++i) {
        const auto j = static_cast<std::uint32_t>(base + i);
        touch(j, plus_count_[j] += delta);
      }
    });
    return;
  }
  const int n = geometry_.side();
  const int cx = static_cast<int>(id % n);
  const int cy = static_cast<int>(id / n);
  for (const Point o : offsets_) {
    const std::uint32_t j = static_cast<std::uint32_t>(
        static_cast<std::size_t>(torus_wrap(cy + o.y, n)) * n +
        torus_wrap(cx + o.x, n));
    touch(j, plus_count_[j] += delta);
  }
}

void BinarySpinEngine::flip_graph(std::uint32_t id) {
  const std::int32_t delta = bits_.flat_test(id) ? -1 : +1;
  if (atomic_bits_) {
    bits_.flat_flip_atomic(id);
  } else {
    bits_.flat_flip(id);
  }
  // row(id) includes id itself, so the flipped node's own count and code
  // update in the same pass; on a torus-built graph the row IS the legacy
  // stencil order, so the touch/set-mutation history matches the span
  // path exactly (goldens pin this).
  const auto [row, len] = graph_->row(id);
  for (int i = 0; i < len; ++i) {
    const std::uint32_t j = row[i];
    touch_graph(j, plus_count_[j] += delta);
  }
}

#if SEG_ENGINE_AVX512
__attribute__((target("avx512f,avx512bw"))) void
BinarySpinEngine::flip_avx512(std::uint32_t id, std::int32_t delta) {
  const int n = geometry_.side();
  const int w = geometry_.radius();
  const int side = 2 * w + 1;
  const int cx = static_cast<int>(id % n);
  const int cy = static_cast<int>(id / n);
  const std::int32_t shift = delta < 0 ? 1 : 0;
  const __m512i vd = _mm512_set1_epi16(static_cast<std::int16_t>(delta));
  // Four compares cover every current model; sentinel-padded lanes never
  // match a count in [0, N]. Models with 5..8 boundaries take the second
  // compare block (the branch is perfectly predicted per engine).
  const __m512i vb0 =
      _mm512_set1_epi16(static_cast<std::int16_t>(breaks_[0] - shift));
  const __m512i vb1 =
      _mm512_set1_epi16(static_cast<std::int16_t>(breaks_[1] - shift));
  const __m512i vb2 =
      _mm512_set1_epi16(static_cast<std::int16_t>(breaks_[2] - shift));
  const __m512i vb3 =
      _mm512_set1_epi16(static_cast<std::int16_t>(breaks_[3] - shift));
  const bool wide = break_count_ > 4;
  // breaks_ always holds kMaxBreaks sentinel-padded entries, so the second
  // block is set unconditionally (no maybe-uninitialized paths).
  const __m512i vb4 =
      _mm512_set1_epi16(static_cast<std::int16_t>(breaks_[4] - shift));
  const __m512i vb5 =
      _mm512_set1_epi16(static_cast<std::int16_t>(breaks_[5] - shift));
  const __m512i vb6 =
      _mm512_set1_epi16(static_cast<std::int16_t>(breaks_[6] - shift));
  const __m512i vb7 =
      _mm512_set1_epi16(static_cast<std::int16_t>(breaks_[7] - shift));
  std::int16_t* counts = plus_count_.data();
  // Same decomposition and order as for_each_window_span: rows from
  // cy - w wrapping upward, each row the wrapped-start segment then (if
  // the window crosses the seam) the head segment.
  int x0 = cx - w;
  if (x0 < 0) x0 += n;
  int y = cy - w;
  if (y < 0) y += n;
  const int tail = n - x0;
  const bool split = tail < side;
  const int seg_count = split ? 2 : 1;
  const int seg_sx[2] = {x0, 0};
  const int seg_len[2] = {split ? tail : side, side - tail};
  for (int row = 0; row < side; ++row) {
    std::int16_t* rowp = counts + static_cast<std::size_t>(y) * n;
    for (int s = 0; s < seg_count; ++s) {
      const int sx = seg_sx[s];
      int off = 0;
      int remaining = seg_len[s];
      while (remaining > 0) {
        const int take = remaining < 32 ? remaining : 32;
        std::int16_t* cnt = rowp + sx + off;
        const __mmask32 lanes =
            take >= 32 ? ~static_cast<__mmask32>(0)
                       : ((static_cast<__mmask32>(1) << take) - 1);
        __m512i v = _mm512_maskz_loadu_epi16(lanes, cnt);
        v = _mm512_add_epi16(v, vd);
        // Masked store writes only the active lanes — no out-of-window
        // memory traffic, so the sharded phase-A concurrency contract is
        // the same as the scalar path's.
        _mm512_mask_storeu_epi16(cnt, lanes, v);
        __mmask32 m = _mm512_mask_cmpeq_epi16_mask(lanes, v, vb0);
        m |= _mm512_mask_cmpeq_epi16_mask(lanes, v, vb1);
        m |= _mm512_mask_cmpeq_epi16_mask(lanes, v, vb2);
        m |= _mm512_mask_cmpeq_epi16_mask(lanes, v, vb3);
        if (wide) {
          m |= _mm512_mask_cmpeq_epi16_mask(lanes, v, vb4);
          m |= _mm512_mask_cmpeq_epi16_mask(lanes, v, vb5);
          m |= _mm512_mask_cmpeq_epi16_mask(lanes, v, vb6);
          m |= _mm512_mask_cmpeq_epi16_mask(lanes, v, vb7);
        }
        // The flipped site changes code by changing sign, not by crossing
        // a boundary: force its lane so touch() re-resolves it.
        if (y == cy && cx >= sx + off && cx < sx + off + take) {
          m |= static_cast<__mmask32>(1) << (cx - sx - off);
        }
        std::uint32_t hits = static_cast<std::uint32_t>(m);
        const auto base = static_cast<std::uint32_t>(
            static_cast<std::size_t>(y) * n + sx + off);
        while (hits != 0) {
          const int j = __builtin_ctz(hits);
          hits &= hits - 1;
          touch(base + static_cast<std::uint32_t>(j), cnt[j]);
        }
        off += take;
        remaining -= take;
      }
    }
    if (++y == n) y = 0;
  }
}
#endif  // SEG_ENGINE_AVX512

bool BinarySpinEngine::check_invariants() const {
  const int n = geometry_.side();
  for (std::uint32_t id = 0; id < size(); ++id) {
    std::int32_t plus = 0;
    std::uint8_t code = 0;
    if (graph_) {
      const auto [row, len] = graph_->row(id);
      for (int i = 0; i < len; ++i) plus += bits_.flat_test(row[i]);
      code = class_tables_[table_of_[id]].code(bits_.flat_test(id), plus);
    } else {
      const int cx = static_cast<int>(id % n);
      const int cy = static_cast<int>(id / n);
      for (const Point o : offsets_) {
        plus += bits_.test(static_cast<std::uint32_t>(
            static_cast<std::size_t>(torus_wrap(cy + o.y, n)) * n +
            torus_wrap(cx + o.x, n)));
      }
      code = table_.code(bits_.test(id), plus);
    }
    if (plus != plus_count_[id] || status_[id] != code) return false;
    const int owner = site_shard(id);
    for (int s = 0; s < set_count_; ++s) {
      // The membership must live in the owning shard's slice and nowhere
      // else — a flip routed through the wrong shard would double-count.
      for (int shard = 0; shard < shard_count_; ++shard) {
        const bool want = shard == owner && (((code >> s) & 1) != 0);
        if (sets_[s * shard_count_ + shard].contains(id) != want) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace seg
