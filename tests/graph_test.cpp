// Tests for the graph core: construction, multigraph semantics, CSR
// integrity, basic algorithms, and serialisation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/registry.hpp"
#include "graph/algorithms.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace ewalk {
namespace {

// Give the Executor four workers even on single-core CI runners, so the
// split builds below run their ranges on real worker threads. Runs before
// main(), i.e. before the first Executor::instance() call in this binary;
// an explicit EWALK_WORKERS in the environment wins.
const bool kWorkersEnvSet = [] {
  setenv("EWALK_WORKERS", "4", /*overwrite=*/0);
  return true;
}();

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  return b.build();
}

TEST(Graph, TriangleBasics) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.all_degrees_even());
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_TRUE(g.is_simple());
}

TEST(Graph, SlotsConsistentWithEndpoints) {
  const Graph g = triangle();
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const Slot& s : g.slots(v)) {
      const auto [a, b] = g.endpoints(s.edge);
      EXPECT_TRUE((a == v && b == s.neighbor) || (b == v && a == s.neighbor));
      EXPECT_EQ(g.other_endpoint(s.edge, v), s.neighbor);
    }
  }
}

TEST(Graph, SlotIndexingRoundTrip) {
  const Graph g = complete_graph(6);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < g.degree(v); ++k) {
      EXPECT_EQ(g.slot_index(v, k), g.slot_offset(v) + k);
      const Slot& s = g.slot(v, k);
      EXPECT_LT(s.neighbor, g.num_vertices());
      EXPECT_LT(s.edge, g.num_edges());
    }
  }
}

TEST(Graph, SelfLoopCountsTwice) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_TRUE(g.has_self_loops());
  EXPECT_FALSE(g.is_simple());
  // The loop occupies two slots at vertex 0 with the same edge id.
  int loop_slots = 0;
  for (const Slot& s : g.slots(0))
    if (s.neighbor == 0) ++loop_slots;
  EXPECT_EQ(loop_slots, 2);
}

TEST(Graph, ParallelEdgesDetected) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_TRUE(g.has_parallel_edges());
  EXPECT_FALSE(g.is_simple());
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.all_degrees_even());
}

TEST(Graph, OddDegreeFlag) {
  const Graph g = path_graph(3);
  EXPECT_FALSE(g.all_degrees_even());
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, StationaryProbabilitySumsToOne) {
  const Graph g = lollipop(5, 4);
  double total = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) total += g.stationary_probability(v);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Graph, FromEdgesRejectsOutOfRange) {
  const Endpoints bad[] = {{0, 5}};
  EXPECT_THROW(Graph::from_edges(3, bad), std::invalid_argument);
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, std::vector<Endpoints>{});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Graph, MoveBuildMatchesCopyBuildExactly) {
  // The memory-lean move overload must produce a bit-identical CSR to the
  // span (copying) overload: same slot order, same edge ids, same flags —
  // walks replay the same trajectories whichever path built the graph.
  Rng rng(7);
  const Graph ref = random_regular_pairing(200, 5, rng);
  std::vector<Endpoints> edges;
  for (EdgeId e = 0; e < ref.num_edges(); ++e) edges.push_back(ref.endpoints(e));

  const Graph copied =
      Graph::from_edges(200, std::span<const Endpoints>(edges));
  const Graph moved = Graph::from_edges(200, std::move(edges));
  ASSERT_EQ(copied.num_edges(), moved.num_edges());
  for (EdgeId e = 0; e < copied.num_edges(); ++e) {
    const auto [cu, cv] = copied.endpoints(e);
    const auto [mu, mv] = moved.endpoints(e);
    EXPECT_EQ(cu, mu);
    EXPECT_EQ(cv, mv);
  }
  for (Vertex v = 0; v < copied.num_vertices(); ++v) {
    ASSERT_EQ(copied.degree(v), moved.degree(v));
    for (std::uint32_t k = 0; k < copied.degree(v); ++k) {
      EXPECT_EQ(copied.slot(v, k).neighbor, moved.slot(v, k).neighbor);
      EXPECT_EQ(copied.slot(v, k).edge, moved.slot(v, k).edge);
    }
  }
  EXPECT_EQ(copied.is_simple(), moved.is_simple());
}

TEST(Graph, MoveBuildCensusHandlesLoopsAndParallels) {
  // The parallel-edge census is folded into the slot scan; self-loops (twin
  // adjacent slots), duplicate loops, and k-fold parallel edges must all be
  // classified exactly as the builder path used to.
  std::vector<Endpoints> edges = {{0, 1}, {0, 1}, {0, 1},  // 3-fold parallel
                                  {1, 1}, {1, 1},          // duplicate loops
                                  {2, 3}, {3, 2},          // parallel, reversed
                                  {4, 4}};                 // lone loop
  const Graph g = Graph::from_edges(5, std::move(edges));
  EXPECT_TRUE(g.has_self_loops());
  EXPECT_TRUE(g.has_parallel_edges());
  EXPECT_FALSE(g.is_simple());
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 7u);  // 3 parallels + two loops counting twice
  EXPECT_EQ(g.degree(4), 2u);

  const Graph simple = Graph::from_edges(
      3, std::vector<Endpoints>{{0, 1}, {1, 2}, {2, 0}});
  EXPECT_TRUE(simple.is_simple());
}

// The twin-slot invariants every vertex-local eviction relies on, checked
// for every slot s of g.
void expect_twin_invariants(const Graph& g) {
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint32_t k = 0; k < g.degree(v); ++k) {
      const std::uint32_t s = g.slot_index(v, k);
      const std::uint32_t t = g.twin(s);
      ASSERT_LT(t, 2 * g.num_edges()) << "slot " << s;
      EXPECT_EQ(g.twin(t), s) << "slot " << s;
      const Slot& here = g.slot(v, k);
      const Vertex w = here.neighbor;
      // t lies in w's row, carries the same edge and points back at v.
      ASSERT_GE(t, g.slot_offset(w)) << "slot " << s;
      ASSERT_LT(t, g.slot_offset(w) + g.degree(w)) << "slot " << s;
      const Slot& there = g.slot(w, t - g.slot_offset(w));
      EXPECT_EQ(there.edge, here.edge) << "slot " << s;
      EXPECT_EQ(there.neighbor, v) << "slot " << s;
      // A self-loop's two slots are adjacent in v's row.
      if (w == v) {
        EXPECT_TRUE(t == s + 1 || s == t + 1) << "slot " << s;
      }
    }
  }
}

TEST(Graph, TwinInvariantsOnMultigraph) {
  const Graph g = test::messy_multigraph();
  ASSERT_TRUE(g.has_self_loops());
  ASSERT_TRUE(g.has_parallel_edges());
  expect_twin_invariants(g);
}

TEST(Graph, TwinInvariantsOnRandomRegular) {
  Rng rng(42);
  expect_twin_invariants(random_regular_pairing(500, 4, rng));
}

TEST(Graph, TwinInvariantsOnFrozenDynamicGraph) {
  // freeze() of a graph that has seen erasures: surviving edges are
  // renumbered, loops and parallels included.
  DynamicGraph d(20);
  Rng rng(7);
  std::vector<EdgeId> ids;
  for (int i = 0; i < 80; ++i) {
    const Vertex u = static_cast<Vertex>(rng.uniform(20));
    const Vertex v = i % 7 == 1 ? u : static_cast<Vertex>(rng.uniform(20));
    ids.push_back(d.insert_edge(u, v));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) d.erase_edge(ids[i]);
  const Graph g = d.freeze();
  ASSERT_TRUE(g.has_self_loops());
  expect_twin_invariants(g);
}

std::vector<Endpoints> edge_list(const Graph& g) {
  std::vector<Endpoints> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) edges.push_back(g.endpoints(e));
  return edges;
}

void expect_same_graph(const Graph& expected, const Graph& actual,
                       const std::string& what) {
  const std::vector<std::uint64_t> a = test::csr_words(expected);
  const std::vector<std::uint64_t> b = test::csr_words(actual);
  ASSERT_EQ(a.size(), b.size()) << what;
  const auto diff = std::mismatch(a.begin(), a.end(), b.begin());
  EXPECT_TRUE(diff.first == a.end())
      << what << ": first differing csr word " << (diff.first - a.begin());
}

// Graphs every split must build identically: multigraphs (self-loops in
// mid-row and heading their rows, parallel edges both ways round, a row long
// enough for the census to sort), isolated vertices, empty graphs, and a
// paper-style random 4-regular graph.
std::vector<std::pair<std::string, Graph>> split_inputs() {
  std::vector<std::pair<std::string, Graph>> inputs;
  inputs.emplace_back("messy_multigraph", test::messy_multigraph());

  GraphBuilder loops_first(12);
  for (Vertex v = 0; v < 12; v += 2) loops_first.add_edge(v, v);
  for (Vertex v = 0; v < 12; v += 4) loops_first.add_edge(v, v);
  for (Vertex v = 0; v < 12; ++v) loops_first.add_edge(v, (v + 1) % 12);
  loops_first.add_edge(5, 6);
  loops_first.add_edge(6, 5);
  inputs.emplace_back("loops_first", std::move(loops_first).build());

  GraphBuilder long_row(50);
  for (Vertex v = 1; v < 50; ++v) long_row.add_edge(0, v);
  for (int k = 0; k < 3; ++k) long_row.add_edge(1, 0);
  for (int k = 0; k < 3; ++k) long_row.add_edge(0, 0);
  inputs.emplace_back("long_row", std::move(long_row).build());

  GraphBuilder isolated(1000);
  for (Vertex v = 0; v < 10; ++v) isolated.add_edge(v, (v + 3) % 10);
  inputs.emplace_back("isolated", std::move(isolated).build());

  inputs.emplace_back("empty", Graph::from_edges(0, std::vector<Endpoints>{}));
  inputs.emplace_back("edgeless", Graph::from_edges(5, std::vector<Endpoints>{}));

  Rng rng(2024);
  inputs.emplace_back("pairing_200000_4", random_regular_pairing(200000, 4, rng));
  return inputs;
}

TEST(Graph, CensusCountsLoopsHeadingRowsAndLongRows) {
  const auto inputs = split_inputs();
  const Graph& loops_first = inputs[1].second;
  EXPECT_EQ(loops_first.self_loop_count(), 9u);
  EXPECT_EQ(loops_first.parallel_edge_count(), 5u);  // 3 doubled loops + {5,6} x3
  EXPECT_EQ(loops_first.slot(0, 0).neighbor, 0u);  // the loops head row 0
  const Graph& long_row = inputs[2].second;
  EXPECT_EQ(long_row.degree(0), 49u + 3u + 6u);
  EXPECT_EQ(long_row.self_loop_count(), 3u);
  EXPECT_EQ(long_row.parallel_edge_count(), 3u + 2u);
}

TEST(Graph, EverySplitBuildsTheSameGraph) {
  // from_edges splits large builds into vertex ranges on the Executor; the
  // arrays must not depend on how many ranges ran, nor on which threads.
  for (const auto& [name, ref] : split_inputs()) {
    const Vertex n = ref.num_vertices();
    expect_same_graph(ref, Graph::from_edges_in_ranges(n, edge_list(ref), 1),
                      name + " ranges=1");
    for (const std::uint32_t ranges : {2u, 3u, 7u})
      expect_same_graph(ref, Graph::from_edges_in_ranges(n, edge_list(ref), ranges),
                        name + " ranges=" + std::to_string(ranges));
  }
}

TEST(Graph, SplitBuildKeepsErrorTextAndLeavesEdgesWithCaller) {
  for (const std::uint32_t ranges : {1u, 2u, 3u, 7u}) {
    std::vector<Endpoints> bad = {{0, 1}, {1, 2}, {2, 9}, {0, 2}};
    try {
      Graph::from_edges_in_ranges(3, std::move(bad), ranges);
      ADD_FAILURE() << "no throw at ranges=" << ranges;
    } catch (const std::invalid_argument& ex) {
      EXPECT_STREQ(ex.what(), "Graph::from_edges: endpoint out of range");
    }
    EXPECT_EQ(bad.size(), 4u) << "the edge list left the caller on a throw";
  }
}

TEST(Graph, GeneratedCsrMatchesGoldenHashes) {
  // Hashes of csr_words recorded with the single-pass serial build, before
  // the build was split into vertex ranges. Rebuilding each edge list at
  // several range counts must reproduce them too.
  struct Case {
    const char* generator;
    ParamMap params;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const std::vector<Case> cases = {
      {"regular-pairing", ParamMap{{"n", "200000"}, {"r", "4"}}, 1, 0x1ece271990fc9eddull},
      {"regular-pairing", ParamMap{{"n", "200000"}, {"r", "4"}}, 7, 0x85585594ab81af19ull},
      {"regular", ParamMap{{"n", "50000"}, {"r", "3"}}, 1, 0x97ff82969e4dbb32ull},
      {"hamunion", ParamMap{{"n", "50000"}, {"k", "3"}}, 1, 0x42010f7bbecc52ccull},
      {"erdosrenyi", ParamMap{{"n", "20000"}, {"p", "0.0005"}}, 1, 0x7838029df13b7eeeull},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    const Graph g = GeneratorRegistry::instance().create(c.generator, c.params, rng);
    EXPECT_EQ(test::csr_hash(g), c.hash) << c.generator << " seed " << c.seed;
    for (const std::uint32_t ranges : {2u, 3u, 7u})
      EXPECT_EQ(test::csr_hash(Graph::from_edges_in_ranges(g.num_vertices(),
                                                           edge_list(g), ranges)),
                c.hash)
          << c.generator << " seed " << c.seed << " ranges=" << ranges;
  }
}

TEST(GraphBuilder, BuildTwiceFromLvalueThenMoveFromRvalue) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph first = b.build();   // lvalue build copies: builder reusable
  const Graph second = b.build();
  EXPECT_EQ(first.num_edges(), second.num_edges());
  const Graph last = std::move(b).build();  // rvalue build adopts the edges
  EXPECT_EQ(last.num_edges(), 2u);
  EXPECT_EQ(last.degree(1), 2u);
}

TEST(Algorithms, BfsDistancesOnPath) {
  const Graph g = path_graph(5);
  const auto d = bfs_distances(g, 0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Algorithms, BfsUnreachable) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_FALSE(is_connected(g));
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 2u);
  EXPECT_EQ(comps.id[0], comps.id[1]);
  EXPECT_NE(comps.id[0], comps.id[2]);
}

TEST(Algorithms, DiameterKnownValues) {
  EXPECT_EQ(diameter(path_graph(6)), 5u);
  EXPECT_EQ(diameter(cycle_graph(8)), 4u);
  EXPECT_EQ(diameter(complete_graph(5)), 1u);
  EXPECT_EQ(diameter(hypercube(4)), 4u);
  EXPECT_EQ(diameter(petersen_graph()), 2u);
}

TEST(Algorithms, EccentricityOfPathEnd) {
  EXPECT_EQ(eccentricity(path_graph(7), 0), 6u);
  EXPECT_EQ(eccentricity(path_graph(7), 3), 3u);
}

TEST(Algorithms, DegreeSequenceSorted) {
  const Graph g = star_graph(5);
  const auto seq = degree_sequence(g);
  EXPECT_EQ(seq[0], 4u);
  for (std::size_t i = 1; i < seq.size(); ++i) EXPECT_EQ(seq[i], 1u);
}

TEST(Io, EdgeListRoundTrip) {
  const Graph g = petersen_graph();
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(degree_sequence(h), degree_sequence(g));
  EXPECT_EQ(diameter(h), diameter(g));
}

TEST(Io, RejectsTruncatedInput) {
  std::stringstream ss("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(Io, DotContainsEdges) {
  std::stringstream ss;
  write_dot(triangle(), ss, "T");
  const std::string out = ss.str();
  EXPECT_NE(out.find("graph T"), std::string::npos);
  EXPECT_NE(out.find("0 -- 1"), std::string::npos);
}

}  // namespace
}  // namespace ewalk
