#include "engine/registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "engine/adapters.hpp"
#include "engine/pcf_process.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/lps.hpp"
#include "graph/pcf.hpp"
#include "interact/coalescing.hpp"
#include "interact/herman.hpp"
#include "interact/token_system.hpp"
#include "walks/choice.hpp"
#include "walks/locally_fair.hpp"
#include "walks/rotor.hpp"
#include "walks/rules.hpp"
#include "walks/srw.hpp"
#include "walks/vertex_process.hpp"
#include "walks/weighted.hpp"

namespace ewalk {

namespace {

Vertex start_vertex(const Graph& g, const ParamMap& params) {
  const Vertex start = static_cast<Vertex>(params.get_u64("start", 0));
  if (start >= g.num_vertices())
    throw std::invalid_argument("--start out of range for this graph");
  return start;
}

// PCF time advanced per walk step: --dt, defaulting to 1/n so one unit of
// graph time corresponds to n walk steps.
double pcf_time_per_step(const Graph& g, const ParamMap& p) {
  const double dflt =
      g.num_vertices() > 0 ? 1.0 / static_cast<double>(g.num_vertices()) : 1.0;
  const double dt = p.get_double("dt", dflt);
  if (!(dt > 0.0)) throw std::invalid_argument("--dt must be > 0");
  return dt;
}

double pcf_alpha(const ParamMap& p) {
  const double alpha = p.get_double("alpha", 1.0);
  if (!(alpha > 0.0)) throw std::invalid_argument("--alpha must be > 0");
  return alpha;
}

std::vector<std::uint32_t> parse_offsets(const std::string& spec) {
  std::vector<std::uint32_t> offsets;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    offsets.push_back(
        static_cast<std::uint32_t>(std::stoul(spec.substr(pos, comma - pos))));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return offsets;
}

void register_builtin_processes(ProcessRegistry& r) {
  r.add("eprocess", "[--rule uniform|first|last|roundrobin|adversary|greedy|priority] [--start V]",
        "unvisited-edge process (the paper's E-process)",
        [](const Graph& g, const ParamMap& p, Rng& rng) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<EProcessHandle>(
              g, start_vertex(g, p), make_rule(p.get("rule", "uniform"), g, rng));
        });
  r.add("multi-eprocess", "[--walkers K] [--rule R] [--start V]",
        "K cooperating E-process walkers sharing one visited-edge state",
        [](const Graph& g, const ParamMap& p, Rng& rng) -> std::unique_ptr<WalkProcess> {
          const std::uint32_t k =
              static_cast<std::uint32_t>(p.get_u64("walkers", 2));
          if (k == 0) throw std::invalid_argument("--walkers must be >= 1");
          // Walkers don't interact, so duplicate starts (k > n) are fine.
          return std::make_unique<MultiEProcessHandle>(
              g,
              spread_token_starts(g.num_vertices(), k, start_vertex(g, p),
                                  /*distinct=*/false),
              make_rule(p.get("rule", "uniform"), g, rng));
        });
  r.add("srw", "[--lazy] [--start V]", "simple random walk (baseline)",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<SimpleRandomWalk>(
              g, start_vertex(g, p), SrwOptions{.lazy = p.get_bool("lazy", false)});
        });
  r.add("lazy-srw", "[--start V]", "lazy simple random walk (hold w.p. 1/2)",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<SimpleRandomWalk>(g, start_vertex(g, p),
                                                    SrwOptions{.lazy = true});
        });
  r.add("rotor", "[--start V]", "rotor-router (Propp machine), deterministic",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<RotorRouter>(g, start_vertex(g, p));
        });
  r.add("vertexwalk", "[--start V]",
        "unvisited-vertex-preferring walk (the V-process)",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<UnvisitedVertexWalk>(g, start_vertex(g, p));
        });
  r.add("rwc", "[--d N] [--start V]",
        "random walk with choice, RWC(d): best of d sampled neighbours",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<RandomWalkWithChoice>(
              g, start_vertex(g, p), static_cast<std::uint32_t>(p.get_u64("d", 2)));
        });
  r.add("leastused", "[--start V]",
        "locally fair: exit along the least-traversed incident edge",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<LocallyFairWalk>(
              g, start_vertex(g, p), FairnessCriterion::kLeastUsedFirst);
        });
  r.add("oldest", "[--start V]",
        "locally fair: exit along the longest-waiting incident edge",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<LocallyFairWalk>(g, start_vertex(g, p),
                                                   FairnessCriterion::kOldestFirst);
        });
  r.add("weighted", "[--start V]",
        "reversible weighted random walk (unit weights)",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          return std::make_unique<WeightedRandomWalk>(
              g, start_vertex(g, p), std::vector<double>(g.num_edges(), 1.0));
        });
  r.add("coalescing-srw", "[--tokens K] [--start V]",
        "K independent SRW tokens merging on vertex collision",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          const std::uint32_t k =
              static_cast<std::uint32_t>(p.get_u64("tokens", 2));
          return std::make_unique<CoalescingRW>(
              g, spread_token_starts(g.num_vertices(), k, start_vertex(g, p)));
        },
        {.token = true});
  r.add("coalescing-ewalk", "[--tokens K] [--rule R] [--start V]",
        "K unvisited-edge-preferring tokens merging on collision",
        [](const Graph& g, const ParamMap& p, Rng& rng) -> std::unique_ptr<WalkProcess> {
          const std::uint32_t k =
              static_cast<std::uint32_t>(p.get_u64("tokens", 2));
          return std::make_unique<CoalescingEWalk>(
              g, spread_token_starts(g.num_vertices(), k, start_vertex(g, p)),
              make_rule(p.get("rule", "uniform"), g, rng));
        },
        {.token = true});
  // PCF-evolving processes: the incoming graph is the POTENTIAL-edge base;
  // the walker steps on an owned DynamicGraph that starts empty and grows
  // as the PCF schedule (drawn from a child split of the walk stream, so
  // trajectories stay thread-count independent) opens edges around it.
  r.add("pcf-srw", "[--alpha A] [--dt T] [--start V]",
        "SRW on a PCF-evolving graph (edges open at rate 1, components freeze at rate alpha)",
        [](const Graph& g, const ParamMap& p, Rng& rng) -> std::unique_ptr<WalkProcess> {
          Rng schedule_rng = rng.split();
          return std::make_unique<PcfProcess<DynamicSrw>>(
              g, start_vertex(g, p), pcf_alpha(p), pcf_time_per_step(g, p),
              schedule_rng);
        });
  r.add("pcf-eprocess", "[--alpha A] [--dt T] [--start V]",
        "unvisited-edge process on a PCF-evolving graph (uniform blue choice)",
        [](const Graph& g, const ParamMap& p, Rng& rng) -> std::unique_ptr<WalkProcess> {
          Rng schedule_rng = rng.split();
          return std::make_unique<PcfProcess<DynamicEProcess>>(
              g, start_vertex(g, p), pcf_alpha(p), pcf_time_per_step(g, p),
              schedule_rng);
        });
  r.add("pcf-coalescing-srw", "[--tokens K] [--alpha A] [--dt T] [--start V]",
        "K coalescing SRW tokens on a PCF-evolving graph",
        [](const Graph& g, const ParamMap& p, Rng& rng) -> std::unique_ptr<WalkProcess> {
          const std::uint32_t k =
              static_cast<std::uint32_t>(p.get_u64("tokens", 2));
          Rng schedule_rng = rng.split();
          return std::make_unique<PcfCoalescingSrw>(
              g, spread_token_starts(g.num_vertices(), k, start_vertex(g, p)),
              pcf_alpha(p), pcf_time_per_step(g, p), schedule_rng);
        },
        {.token = true});
  r.add("herman", "[--tokens K odd] [--start V]",
        "Herman's protocol: odd tokens on a cycle, pairwise annihilation",
        [](const Graph& g, const ParamMap& p, Rng&) -> std::unique_ptr<WalkProcess> {
          const std::uint32_t k =
              static_cast<std::uint32_t>(p.get_u64("tokens", 3));
          return std::make_unique<HermanRing>(
              g, spread_token_starts(g.num_vertices(), k, start_vertex(g, p)));
        },
        {.token = true});
}

void register_builtin_generators(GeneratorRegistry& r) {
  r.add("regular", "--n --r", "random r-regular (Steger-Wormald), connected",
        [](const ParamMap& p, Rng& rng) {
          return random_regular_connected(
              static_cast<Vertex>(p.get_u64("n", 10000)),
              static_cast<std::uint32_t>(p.get_u64("r", 4)), rng);
        },
        {.connected = true});
  r.add("regular-pairing", "--n --r",
        "random r-regular (pairing model + edge-swap repair), connected",
        [](const ParamMap& p, Rng& rng) {
          return random_regular_pairing_connected(
              static_cast<Vertex>(p.get_u64("n", 10000)),
              static_cast<std::uint32_t>(p.get_u64("r", 4)), rng);
        },
        {.connected = true});
  r.add("hamunion", "--n --k", "union of k random Hamiltonian cycles",
        [](const ParamMap& p, Rng& rng) {
          return hamiltonian_cycle_union(
              static_cast<Vertex>(p.get_u64("n", 10000)),
              static_cast<std::uint32_t>(p.get_u64("k", 2)), rng);
        });
  r.add("cycle", "--n", "cycle C_n",
        [](const ParamMap& p, Rng&) {
          return cycle_graph(static_cast<Vertex>(p.get_u64("n", 10000)));
        });
  r.add("complete", "--n", "complete graph K_n",
        [](const ParamMap& p, Rng&) {
          return complete_graph(static_cast<Vertex>(p.get_u64("n", 10000)));
        });
  r.add("hypercube", "--r", "hypercube H_r on 2^r vertices",
        [](const ParamMap& p, Rng&) {
          return hypercube(static_cast<std::uint32_t>(p.get_u64("r", 10)));
        });
  r.add("torus", "--w --h", "2-D torus (cyclic grid)",
        [](const ParamMap& p, Rng&) {
          return torus_2d(static_cast<Vertex>(p.get_u64("w", 100)),
                          static_cast<Vertex>(p.get_u64("h", 100)));
        });
  r.add("grid", "--w --h", "2-D open grid",
        [](const ParamMap& p, Rng&) {
          return grid_2d(static_cast<Vertex>(p.get_u64("w", 100)),
                         static_cast<Vertex>(p.get_u64("h", 100)));
        });
  r.add("geometric", "--n --radius", "random geometric graph in the unit square",
        [](const ParamMap& p, Rng& rng) {
          return random_geometric(static_cast<Vertex>(p.get_u64("n", 10000)),
                                  p.get_double("radius", 0.03), rng);
        });
  r.add("erdosrenyi", "--n --p", "Erdos-Renyi G(n, p)",
        [](const ParamMap& p, Rng& rng) {
          return erdos_renyi(static_cast<Vertex>(p.get_u64("n", 10000)),
                             p.get_double("p", 0.001), rng);
        });
  r.add("lps", "--p --q", "Lubotzky-Phillips-Sarnak Ramanujan graph X^{p,q}",
        [](const ParamMap& p, Rng&) {
          return lps_graph({static_cast<std::uint32_t>(p.get_u64("p", 5)),
                            static_cast<std::uint32_t>(p.get_u64("q", 13))});
        });
  r.add("margulis", "--k", "Margulis-type 8-regular expander on k x k",
        [](const ParamMap& p, Rng&) {
          return margulis_expander(static_cast<Vertex>(p.get_u64("k", 100)));
        });
  r.add("circulant", "--n --offsets a,b,c", "circulant graph C_n(offsets)",
        [](const ParamMap& p, Rng&) {
          return circulant(static_cast<Vertex>(p.get_u64("n", 10000)),
                           parse_offsets(p.get("offsets", "1,2")));
        });
  r.add("lollipop", "--clique --tail", "K_k clique with a path tail",
        [](const ParamMap& p, Rng&) {
          return lollipop(static_cast<Vertex>(p.get_u64("clique", 50)),
                          static_cast<Vertex>(p.get_u64("tail", 50)));
        });
  r.add("pcf", "--base FAMILY --alpha A --n N (+ base family params)",
        "terminal PCF cluster graph: play edge-opening with freezing on a base family to exhaustion, freeze the open subgraph",
        [](const ParamMap& p, Rng& rng) {
          const std::string base_name = p.get("base", "regular");
          if (base_name == "pcf")
            throw std::invalid_argument("--base pcf would recurse");
          const Graph base =
              GeneratorRegistry::instance().create(base_name, p, rng);
          PcfSchedule schedule(base, pcf_alpha(p), rng);
          DynamicGraph dyn(base.num_vertices());
          schedule.run_to_completion(dyn);
          return dyn.freeze();
        });
  r.add("petersen", "", "the Petersen graph",
        [](const ParamMap&, Rng&) { return petersen_graph(); });
  r.add("file", "--path", "edge list written by write_edge_list",
        [](const ParamMap& p, Rng&) {
          return read_edge_list_file(p.get("path", "graph.txt"));
        });
}

}  // namespace

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Single-row dynamic program; the strings here are short option names.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

std::vector<std::string> nearest_names(const std::string& name,
                                       const std::vector<std::string>& candidates,
                                       std::size_t max_results) {
  // A suggestion further than ~a third of the query (min 2 edits) is noise:
  // "eproces" should suggest eprocess, "zzzzz" should suggest nothing.
  const std::size_t budget = std::max<std::size_t>(2, name.size() / 3);
  std::vector<std::pair<std::size_t, std::string>> scored;
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d <= budget) scored.emplace_back(d, c);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  if (scored.size() > max_results) scored.resize(max_results);
  std::vector<std::string> out;
  out.reserve(scored.size());
  for (auto& [d, c] : scored) out.push_back(std::move(c));
  return out;
}

std::unique_ptr<UnvisitedEdgeRule> make_rule(const std::string& name,
                                             const Graph& g, Rng& rng) {
  if (name == "uniform") return std::make_unique<UniformRule>();
  if (name == "first") return std::make_unique<FirstSlotRule>();
  if (name == "last") return std::make_unique<LastSlotRule>();
  if (name == "roundrobin") return std::make_unique<RoundRobinRule>(g.num_vertices());
  if (name == "adversary") return std::make_unique<PreferVisitedEndpointRule>();
  if (name == "greedy") return std::make_unique<PreferUnvisitedEndpointRule>();
  if (name == "priority") return std::make_unique<FixedPriorityRule>(g.num_edges(), rng);
  std::ostringstream msg;
  msg << "unknown --rule: " << name;
  const std::vector<std::string> near = nearest_names(name, rule_names());
  if (!near.empty()) {
    msg << " (did you mean:";
    for (const std::string& n : near) msg << ' ' << n;
    msg << '?' << ')';
  }
  msg << " (known:";
  for (const auto& k : rule_names()) msg << ' ' << k;
  msg << ')';
  throw std::invalid_argument(msg.str());
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "uniform", "first", "last", "roundrobin", "adversary", "greedy", "priority"};
  return names;
}

ProcessRegistry& ProcessRegistry::instance() {
  static ProcessRegistry registry = [] {
    ProcessRegistry r;
    register_builtin_processes(r);
    return r;
  }();
  return registry;
}

GeneratorRegistry& GeneratorRegistry::instance() {
  static GeneratorRegistry registry = [] {
    GeneratorRegistry r;
    register_builtin_generators(r);
    return r;
  }();
  return registry;
}

}  // namespace ewalk
