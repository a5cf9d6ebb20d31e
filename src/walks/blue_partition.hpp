// The blue-prefix partition: O(1) access to the unvisited ("blue") incident
// edges of every vertex, with O(1) vertex-local eviction.
//
// Each vertex v owns the rows [slot_offset(v), slot_offset(v) + deg) of one
// interleaved record array; record i of v's region holds two fields:
//   * order — the local slot index (0..deg-1) occupying position i of v's
//     permutation; positions < blue_count(v) are blue;
//   * pos   — the position local slot i currently holds, the inverse
//     permutation of order, maintained through every swap.
// Taking a blue edge (take) starts from a position at the walker's vertex v
// and reaches the same edge's slot at the far endpoint through the CSR's
// twin table (Graph::twin), so a blue step reads only the two endpoints'
// partition rows and their slot rows — never an array indexed by edge id.
// Each endpoint's eviction is one swap with the last blue position, so a
// blue step costs O(1) regardless of degree. The swaps are move-for-move
// identical to the prefix scan the original implementation used, so walk
// trajectories are unchanged bit-for-bit; for a self-loop the slot nearer
// the front is evicted first, the order the scan found them in.
//
// State is 8 bytes per slot plus 4 per vertex, filled at construction with
// the identity permutation in one sequential pass.
//
// This is the state every unvisited-edge-preferring process shares —
// EProcess, MultiEProcess, CoalescingEWalk — extracted here so the eviction
// subtleties live in one place. The companion choose_blue_position helper
// (blue_choice.hpp) implements the index-based rule dispatch with the
// uniform-rule O(1) fast path on top of it; blue_slot(g, v, p) is the O(1)
// accessor index-based rules read candidates through.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ewalk {

class BluePartition {
 public:
  /// All edges start blue.
  explicit BluePartition(const Graph& g)
      : rows_(2 * static_cast<std::size_t>(g.num_edges())),
        blue_count_(g.num_vertices()) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::uint32_t off = g.slot_offset(v);
      const std::uint32_t d = g.degree(v);
      blue_count_[v] = d;
      for (std::uint32_t k = 0; k < d; ++k) rows_[off + k] = Row{k, k};
    }
  }

  /// Number of blue edges incident with v right now.
  std::uint32_t blue_count(Vertex v) const { return blue_count_[v]; }

  /// The blue slot at position p of v's prefix, 0 <= p < blue_count(v).
  Slot blue_slot(const Graph& g, Vertex v, std::uint32_t p) const {
    return g.slot(v, rows_[g.slot_offset(v) + p].order);
  }

  /// Hints the hardware to pull v's partition state into cache: the blue
  /// count and the head of v's record row — the two lines a blue step at v
  /// touches first. Companion to Graph::prefetch_hint for interleaved trial
  /// bundles (engine/bundle.hpp); safe for any vertex, no side effects.
  void prefetch_hint(const Graph& g, Vertex v) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(blue_count_.data() + v);
    __builtin_prefetch(rows_.data() + g.slot_offset(v));
#else
    (void)g;
    (void)v;
#endif
  }

  /// Takes the blue edge at position p of v's prefix (p < blue_count(v)):
  /// evicts it from the blue prefix at v and at the far endpoint, found
  /// through the twin slot, and returns the slot taken at v. For a
  /// self-loop both slots sit at v and the one nearer the front is evicted
  /// first. O(1); the one way a walk marks an edge visited.
  Slot take(const Graph& g, Vertex v, std::uint32_t p) {
    assert(p < blue_count_[v]);
    const std::uint32_t off = g.slot_offset(v);
    const std::uint32_t k = rows_[off + p].order;
    const Slot chosen = g.slot(v, k);
    const std::uint32_t twin = g.twin(off + k);
    const Vertex w = chosen.neighbor;
    if (w != v) {
      evict(v, off, p, k);
      const std::uint32_t off_w = g.slot_offset(w);
      const std::uint32_t kw = twin - off_w;
      evict(w, off_w, rows_[off_w + kw].pos, kw);
    } else {
      // Self-loop: evict the slot currently nearer the front first — the
      // order a front-to-back prefix scan finds them — so the resulting
      // permutation is identical to the scan-based implementation.
      const std::uint32_t kt = twin - off;
      const std::uint32_t q = rows_[off + kt].pos;
      if (q < p) {
        evict(v, off, q, kt);
        evict(v, off, rows_[off + k].pos, k);
      } else {
        evict(v, off, p, k);
        evict(v, off, rows_[off + kt].pos, kt);
      }
    }
    return chosen;
  }

 private:
  struct Row {
    std::uint32_t order;  ///< local slot at this position
    std::uint32_t pos;    ///< position of this local slot
  };

  /// Swaps local slot k, at position p of owner's region (starting at
  /// `off`), out of owner's blue prefix. Precondition: p is blue.
  void evict(Vertex owner, std::uint32_t off, std::uint32_t p,
             std::uint32_t k) {
    assert(blue_count_[owner] > 0 && p < blue_count_[owner]);
    assert(rows_[off + p].order == k);
    const std::uint32_t last = blue_count_[owner] - 1;
    const std::uint32_t moved = rows_[off + last].order;
    rows_[off + p].order = moved;
    rows_[off + last].order = k;
    rows_[off + moved].pos = p;
    rows_[off + k].pos = last;
    blue_count_[owner] = last;
  }

  std::vector<Row> rows_;
  std::vector<std::uint32_t> blue_count_;
};

}  // namespace ewalk
