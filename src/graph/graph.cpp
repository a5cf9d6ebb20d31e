#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/thread_pool.hpp"

namespace ewalk {

namespace {

// Edges per range below which from_edges does not split the build: a graph
// this small fills in a few milliseconds, where task hops and the extra
// scans of the edge list cost more than the split saves. It keeps every
// graph of the serving mix (n <= 65536 at r = 4) on one range.
constexpr std::size_t kRangeGrainEdges = std::size_t{1} << 18;

// One range's share of the graph-wide statistics, folded after the passes.
struct RangeTally {
  std::uint64_t self_loops = 0;
  std::uint64_t parallel_edges = 0;
  std::uint32_t min_degree = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t max_degree = 0;
  bool all_even = true;
};

// Neighbours v >= u in u's row that repeat an earlier one (see pass 3).
// Short rows compare against the row's earlier slots, which are in L1;
// long rows sort a copy in `seen`, scratch reused across rows.
std::uint64_t repeated_neighbours(Vertex u, std::span<const Slot> row,
                                  std::vector<Vertex>& seen) {
  constexpr std::size_t kPairwiseMax = 32;
  if (row.size() <= kPairwiseMax) {
    std::uint64_t repeats = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      const Vertex v = row[i].neighbor;
      if (v < u) continue;
      for (std::size_t j = 0; j < i; ++j) {
        if (row[j].neighbor == v) {
          ++repeats;
          break;
        }
      }
      if (v == u) ++i;  // skip the self-loop's twin slot
    }
    return repeats;
  }
  seen.clear();
  for (std::size_t i = 0; i < row.size(); ++i) {
    const Vertex v = row[i].neighbor;
    if (v < u) continue;
    if (v == u) ++i;  // skip the self-loop's twin slot
    seen.push_back(v);
  }
  if (seen.size() < 2) return 0;
  std::sort(seen.begin(), seen.end());
  std::uint64_t repeats = 0;
  for (std::size_t k = 1; k < seen.size(); ++k) repeats += seen[k] == seen[k - 1];
  return repeats;
}

}  // namespace

Graph Graph::from_edges(Vertex n, std::span<const Endpoints> edges) {
  return from_edges(n, std::vector<Endpoints>(edges.begin(), edges.end()));
}

Graph Graph::from_edges(Vertex n, std::vector<Endpoints>&& edges) {
  const std::size_t most = edges.size() / kRangeGrainEdges;
  const std::uint32_t ranges =
      most < 2 ? 1
               : static_cast<std::uint32_t>(std::min<std::size_t>(
                     most, TaskScope::available_parallelism()));
  return from_edges_in_ranges(n, std::move(edges), ranges);
}

Graph Graph::from_edges_in_ranges(Vertex n, std::vector<Endpoints>&& edges,
                                  std::uint32_t ranges) {
  // Slot indices (offsets_, slot_index) are 32-bit: 2m must fit. Edge ids are
  // 32-bit too, which the same bound covers with room to spare.
  if (edges.size() > std::numeric_limits<std::uint32_t>::max() / 2)
    throw std::invalid_argument(
        "Graph::from_edges: edge count overflows 32-bit slot indices (n=" +
        std::to_string(n) + ", m=" + std::to_string(edges.size()) +
        "; 2m must fit in uint32)");
  ranges = std::max(ranges, 1u);

  // Every pass reads the caller's list in place and the graph adopts it
  // only once the build succeeded, so a throw leaves `edges` owned by the
  // caller (a concurrent reader of the buffer stays safe).
  const Endpoints* const list = edges.data();
  const std::size_t m = edges.size();
  Graph g;
  g.n_ = n;
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  // Range r owns the vertices [first(r), first(r + 1)): their offsets_
  // entries and their slot rows. No two ranges write the same element, and
  // each scans the edge list in edge-id order, so every range count fills
  // the slots exactly as one serial pass does.
  const auto first = [n, ranges](std::uint32_t r) {
    return static_cast<Vertex>(std::uint64_t{n} * r / ranges);
  };
  std::vector<RangeTally> tally(ranges);

  // Pass 1: validate endpoints, count degrees into offsets_[v + 1], and
  // count self-loops — all in the one sweep over the edge list.
  fork_join(ranges, [&](std::uint32_t r) {
    const Vertex lo = first(r), span = first(r + 1) - lo;
    std::uint32_t* const degree = g.offsets_.data() + 1;
    std::uint64_t self_loops = 0;
    for (std::size_t e = 0; e < m; ++e) {
      const auto [u, v] = list[e];
      if (u >= n || v >= n)
        throw std::invalid_argument("Graph::from_edges: endpoint out of range");
      if (u - lo < span) {
        ++degree[u];
        if (u == v) ++self_loops;
      }
      if (v - lo < span) ++degree[v];
    }
    tally[r].self_loops = self_loops;
  });
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];

  // Pass 2: bucket fill using offsets_ itself as the cursor array (after the
  // fill, offsets_[v] holds the END of v's bucket, i.e. the start of v+1's,
  // so one backward shift over the range restores the CSR offsets — no
  // cursor vector). A self-loop writes its two slots back-to-back; the
  // census below and other_endpoint rely on that adjacency. One range has
  // both slot indices in hand and fills the twin table in the same pass; a
  // split build records each endpoint's slot in `endpoint_slot` (2m words,
  // allocated only when split) and pairs them up in pass 3.
  const bool split = ranges > 1;
  g.slots_.resize(2 * m);
  g.twin_.resize(2 * m);
  std::unique_ptr<std::uint32_t[]> endpoint_slot;
  if (split) endpoint_slot = std::make_unique_for_overwrite<std::uint32_t[]>(2 * m);
  fork_join(ranges, [&](std::uint32_t r) {
    const Vertex lo = first(r), span = first(r + 1) - lo;
    if (span == 0) return;
    std::uint32_t* const cursor = g.offsets_.data();
    const std::uint32_t start = cursor[lo];
    for (EdgeId e = 0; e < m; ++e) {
      const auto [u, v] = list[e];
      const bool own_u = u - lo < span;
      const bool own_v = v - lo < span;
      std::uint32_t su = 0, sv = 0;
      if (own_u) {
        su = cursor[u]++;
        g.slots_[su] = Slot{v, e};
      }
      if (own_v) {
        sv = cursor[v]++;
        g.slots_[sv] = Slot{u, e};
      }
      if (!split) {
        g.twin_[su] = sv;
        g.twin_[sv] = su;
        continue;
      }
      if (own_u) endpoint_slot[2 * std::size_t{e}] = su;
      if (own_v) endpoint_slot[2 * std::size_t{e} + 1] = sv;
    }
    for (Vertex v = lo + span - 1; v > lo; --v) cursor[v] = cursor[v - 1];
    cursor[lo] = start;
  });

  // Pass 3: a split build pairs the recorded slots into twins, each range
  // taking an equal share of the edge ids (every twin_ entry is written
  // once, by whichever range holds its edge). Then each range takes the
  // degree statistics and the parallel-edge census over its own rows. The
  // census counts, for each vertex u, the neighbours v >= u that repeat an
  // earlier one in u's row, so k parallel copies of an edge contribute k-1;
  // each undirected edge is counted from its min endpoint only, and a
  // self-loop's twin slot (adjacent by construction) is skipped so k
  // self-loops at u likewise contribute k-1. Scratch is one row copy per
  // range, and only for rows too long to compare pairwise.
  fork_join(ranges, [&](std::uint32_t r) {
    if (split) {
      for (std::size_t e = m * r / ranges; e < m * (r + 1) / ranges; ++e) {
        const std::uint32_t su = endpoint_slot[2 * e];
        const std::uint32_t sv = endpoint_slot[2 * e + 1];
        g.twin_[su] = sv;
        g.twin_[sv] = su;
      }
    }
    const Vertex lo = first(r), span = first(r + 1) - lo;
    RangeTally& t = tally[r];
    std::vector<Vertex> seen;
    for (Vertex u = lo; u < lo + span; ++u) {
      const std::uint32_t d = g.degree(u);
      t.min_degree = std::min(t.min_degree, d);
      t.max_degree = std::max(t.max_degree, d);
      if (d % 2 != 0) t.all_even = false;
      t.parallel_edges += repeated_neighbours(u, g.slots(u), seen);
    }
  });
  endpoint_slot.reset();

  g.min_degree_ = n > 0 ? std::numeric_limits<std::uint32_t>::max() : 0;
  for (const RangeTally& t : tally) {
    g.self_loops_ += t.self_loops;
    g.parallel_edges_ += t.parallel_edges;
    g.min_degree_ = std::min(g.min_degree_, t.min_degree);
    g.max_degree_ = std::max(g.max_degree_, t.max_degree);
    g.all_even_ = g.all_even_ && t.all_even;
  }
  g.edges_ = std::move(edges);
  return g;
}

EdgeId GraphBuilder::add_edge(Vertex u, Vertex v) {
  if (u >= n_ || v >= n_) throw std::invalid_argument("GraphBuilder::add_edge: endpoint out of range");
  edges_.push_back(Endpoints{u, v});
  return static_cast<EdgeId>(edges_.size() - 1);
}

}  // namespace ewalk
