// The blue-prefix partition: O(1) access to the unvisited ("blue") incident
// edges of every vertex, with O(1) vertex-local eviction.
//
// Each vertex v owns the records [slot_offset(v), slot_offset(v) + deg) of
// one record array, a permutation of v's CSR row; positions
// < blue_count(v) are blue. The record at each position is self-contained,
// holding everything a blue step needs:
//   * neighbor, edge — the adjacency slot itself, copied from the CSR;
//   * mate — the current global record index of the same edge's record at
//     the other endpoint. Mates are an involution (mate(mate(i)) == i); a
//     self-loop's two records both sit in v's region and mate each other.
// Taking a blue edge (take) reads one record at the walker's vertex v and
// jumps through its mate straight to the far endpoint's record, so a blue
// step waits on one dependent cache miss: nothing it reads is indexed by
// edge id, and the CSR is read only for the far endpoint's offset. Each
// endpoint's eviction is one swap with the last blue position, after which
// the moved record's mate is repointed at its new index (a store that no
// later load of the step waits on); a blue step costs O(1) regardless of
// degree. The swaps are move-for-move identical to the prefix scan the
// original implementation used, so walk trajectories are unchanged
// bit-for-bit; for a self-loop the record nearer the front is evicted
// first, the order the scan found them in.
//
// State is 12 bytes per slot plus 4 per vertex, filled at construction from
// the CSR's slots and twin table in one sequential pass.
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
      : records_(2 * static_cast<std::size_t>(g.num_edges())),
        blue_count_(g.num_vertices()) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const std::uint32_t off = g.slot_offset(v);
      const std::uint32_t d = g.degree(v);
      blue_count_[v] = d;
      for (std::uint32_t k = 0; k < d; ++k) {
        const Slot& s = g.slot(v, k);
        records_[off + k] = Record{s.neighbor, s.edge, g.twin(off + k)};
      }
    }
  }

  /// Number of blue edges incident with v right now.
  std::uint32_t blue_count(Vertex v) const { return blue_count_[v]; }

  /// The blue slot at position p of v's prefix, 0 <= p < blue_count(v).
  Slot blue_slot(const Graph& g, Vertex v, std::uint32_t p) const {
    const Record& r = records_[g.slot_offset(v) + p];
    return Slot{r.neighbor, r.edge};
  }

  /// Hints the hardware to pull v's partition state into cache: the blue
  /// count and the head of v's record row — the two lines a blue step at v
  /// touches first. Companion to Graph::prefetch_hint for interleaved trial
  /// bundles (engine/bundle.hpp); safe for any vertex, no side effects.
  void prefetch_hint(const Graph& g, Vertex v) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(blue_count_.data() + v);
    __builtin_prefetch(records_.data() + g.slot_offset(v));
#else
    (void)g;
    (void)v;
#endif
  }

  /// Takes the blue edge at position p of v's prefix (p < blue_count(v)):
  /// evicts it from the blue prefix at v and at the far endpoint, reached
  /// through the record's mate, and returns the slot taken at v. For a
  /// self-loop both records sit at v and the one nearer the front is
  /// evicted first. O(1); the one way a walk marks an edge visited.
  Slot take(const Graph& g, Vertex v, std::uint32_t p) {
    assert(p < blue_count_[v]);
    const std::uint32_t i = g.slot_offset(v) + p;
    const Record taken = records_[i];
    const Vertex w = taken.neighbor;
    if (w != v) {
      evict(v, i, g.slot_offset(v));
      evict(w, taken.mate, g.slot_offset(w));
    } else {
      // Self-loop: evict the record currently nearer the front first — the
      // order a front-to-back prefix scan finds them — so the resulting
      // permutation is identical to the scan-based implementation. The
      // first eviction leaves it at the old last blue index, whose mate is
      // then the other record's current index.
      const std::uint32_t off = g.slot_offset(v);
      const std::uint32_t last = off + blue_count_[v] - 1;
      evict(v, i < taken.mate ? i : taken.mate, off);
      evict(v, records_[last].mate, off);
    }
    return Slot{taken.neighbor, taken.edge};
  }

  /// Checks the partition's invariants against `g` and throws
  /// std::logic_error naming the first violation: every vertex's region is
  /// a permutation of its CSR row; blue_count(v) <= degree(v); every
  /// record's mate lies in its neighbour's region, carries the same edge
  /// and mates it back; and an edge is blue at both endpoints or at
  /// neither. O(m log Δ); for tests and debugging, never the hot path.
  void check_invariants(const Graph& g) const;

 private:
  struct Record {
    Vertex neighbor;    ///< far endpoint of this position's edge
    EdgeId edge;        ///< the edge itself
    std::uint32_t mate; ///< global index of the edge's other record
  };

  /// Swaps the blue record at global index x of owner's region (starting
  /// at `off`) with the last blue record, shrinks owner's blue prefix past
  /// it, and repoints both records' mates at their new indices. Two records
  /// that mate each other are a self-loop's pair: identical but for their
  /// mates, so the swap leaves them as they are. Precondition: x is blue.
  void evict(Vertex owner, std::uint32_t x, std::uint32_t off) {
    assert(blue_count_[owner] > 0 && x - off < blue_count_[owner]);
    const std::uint32_t y = off + --blue_count_[owner];
    if (x == y) return;
    const Record rx = records_[x];
    const Record ry = records_[y];
    if (rx.mate == y) return;
    records_[rx.mate].mate = y;
    records_[ry.mate].mate = x;
    records_[x] = ry;
    records_[y] = rx;
  }

  std::vector<Record> records_;
  std::vector<std::uint32_t> blue_count_;
};

}  // namespace ewalk
