#include "graph/algorithms.hpp"

#include <algorithm>
#include <atomic>

#include "graph/union_find.hpp"

namespace ewalk {

namespace {

std::atomic<std::uint64_t> g_connectivity_bfs_calls{0};

}  // namespace

std::uint64_t connectivity_bfs_calls() noexcept {
  return g_connectivity_bfs_calls.load(std::memory_order_relaxed);
}

std::uint32_t bfs_distances_into(const Graph& g, Vertex source,
                                 std::vector<std::uint32_t>& dist,
                                 std::vector<Vertex>& frontier) {
  dist.assign(g.num_vertices(), kUnreachable);
  frontier.clear();
  dist[source] = 0;
  frontier.push_back(source);
  // The frontier vector doubles as the queue: head chases the tail, visited
  // vertices stay in place, so no deque node churn and the storage persists
  // across calls.
  std::size_t head = 0;
  while (head < frontier.size()) {
    const Vertex u = frontier[head++];
    for (const Slot& s : g.slots(u)) {
      if (dist[s.neighbor] == kUnreachable) {
        dist[s.neighbor] = dist[u] + 1;
        frontier.push_back(s.neighbor);
      }
    }
  }
  return static_cast<std::uint32_t>(frontier.size());
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, Vertex source) {
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> frontier;
  bfs_distances_into(g, source, dist, frontier);
  return dist;
}

bool is_connected(const Graph& g) {
  g_connectivity_bfs_calls.fetch_add(1, std::memory_order_relaxed);
  if (g.num_vertices() == 0) return true;
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> frontier;
  return bfs_distances_into(g, 0, dist, frontier) == g.num_vertices();
}

bool edge_list_connected(Vertex n, std::span<const Endpoints> edges) {
  UnionFind uf(0);  // sized by the reset in the overload below
  return edge_list_connected(n, edges, uf);
}

bool edge_list_connected(Vertex n, std::span<const Endpoints> edges, UnionFind& uf) {
  if (n <= 1) return true;
  uf.reset(n);
  for (const auto& [u, v] : edges) {
    uf.unite(u, v);
    if (uf.components() == 1) return true;  // nothing left to merge
  }
  return uf.components() == 1;
}

Components connected_components(const Graph& g) {
  Components c;
  c.id.assign(g.num_vertices(), kUnreachable);
  std::vector<Vertex> frontier;
  for (Vertex start = 0; start < g.num_vertices(); ++start) {
    if (c.id[start] != kUnreachable) continue;
    c.id[start] = c.count;
    frontier.clear();
    frontier.push_back(start);
    std::size_t head = 0;
    while (head < frontier.size()) {
      const Vertex u = frontier[head++];
      for (const Slot& s : g.slots(u)) {
        if (c.id[s.neighbor] == kUnreachable) {
          c.id[s.neighbor] = c.count;
          frontier.push_back(s.neighbor);
        }
      }
    }
    ++c.count;
  }
  return c;
}

std::uint32_t eccentricity(const Graph& g, Vertex source) {
  const auto dist = bfs_distances(g, source);
  std::uint32_t ecc = 0;
  for (std::uint32_t d : dist) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t diam = 0;
  std::vector<std::uint32_t> dist;
  std::vector<Vertex> frontier;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    // Shared scratch across the n sources: one allocation for the whole
    // all-pairs sweep instead of one per BFS.
    if (bfs_distances_into(g, v, dist, frontier) != g.num_vertices())
      return kUnreachable;
    for (const Vertex u : frontier) diam = std::max(diam, dist[u]);
  }
  return diam;
}

std::vector<std::uint32_t> degree_sequence(const Graph& g) {
  std::vector<std::uint32_t> seq(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) seq[v] = g.degree(v);
  std::sort(seq.begin(), seq.end(), std::greater<>());
  return seq;
}

}  // namespace ewalk
