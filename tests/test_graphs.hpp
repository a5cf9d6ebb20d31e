// Shared test fixtures: graphs several suites exercise.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ewalk::test {

// A connected multigraph with self-loops and parallel edges: the cases where
// blue-eviction order is subtle (a self-loop occupies two slots of the same
// vertex; parallel edges are distinct edge ids in neighbouring slots).
inline Graph messy_multigraph() {
  const Vertex n = 60;
  GraphBuilder b(n);
  for (Vertex v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);  // base cycle
  for (Vertex v = 0; v < n; v += 5) b.add_edge(v, (v + 1) % n);  // parallel
  for (Vertex v = 0; v < n; v += 7) b.add_edge(v, v);            // self-loop
  for (Vertex v = 0; v < n; v += 3) b.add_edge(v, (v + 13) % n);  // chords
  return b.build();
}

// Every array and statistic a CSR build produces, flattened in a fixed
// order: n and m, offsets (n + 1 entries), slots (neighbour, edge) row by
// row, twins, edge endpoints, then the self-loop and parallel-edge counts,
// min and max degree, and the all-even flag. Two builds are the same Graph
// iff their words are equal.
inline std::vector<std::uint64_t> csr_words(const Graph& g) {
  const Vertex n = g.num_vertices();
  const EdgeId m = g.num_edges();
  std::vector<std::uint64_t> w = {n, m};
  for (Vertex v = 0; v <= n; ++v) w.push_back(g.slot_offset(v));
  for (Vertex v = 0; v < n; ++v)
    for (const Slot& s : g.slots(v)) {
      w.push_back(s.neighbor);
      w.push_back(s.edge);
    }
  for (std::uint32_t s = 0; s < 2 * m; ++s) w.push_back(g.twin(s));
  for (EdgeId e = 0; e < m; ++e) {
    w.push_back(g.endpoints(e).u);
    w.push_back(g.endpoints(e).v);
  }
  w.push_back(g.self_loop_count());
  w.push_back(g.parallel_edge_count());
  w.push_back(g.min_degree());
  w.push_back(g.max_degree());
  w.push_back(g.all_degrees_even());
  return w;
}

// FNV-1a over the little-endian bytes of csr_words: the golden-hash form.
inline std::uint64_t csr_hash(const Graph& g) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t word : csr_words(g))
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  return h;
}

}  // namespace ewalk::test
