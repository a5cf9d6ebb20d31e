#include "serve/request.hpp"

#include <stdexcept>
#include <string>

#include "covertime/experiment.hpp"
#include "engine/registry.hpp"
#include "util/thread_pool.hpp"

namespace ewalk {

RunTarget parse_run_target(const std::string& name) {
  if (name.empty() || name == "auto") return RunTarget::kAuto;
  if (name == "vertices") return RunTarget::kVertices;
  if (name == "edges") return RunTarget::kEdges;
  if (name == "coalescence") return RunTarget::kCoalescence;
  throw std::invalid_argument("bad --target: '" + name +
                              "' (want vertices, edges, or coalescence)");
}

std::string run_target_name(RunTarget target) {
  switch (target) {
    case RunTarget::kVertices: return "vertices";
    case RunTarget::kEdges: return "edges";
    case RunTarget::kCoalescence: return "coalescence";
    case RunTarget::kAuto: break;
  }
  return "auto";
}

namespace {

// An integer field that must fit std::uint32_t and be at least `min`. The
// plain getters would wrap "-1" to UINT64_MAX (stoull) or truncate values
// above UINT32_MAX (a cast), so both are rejected here, naming the flag.
std::uint32_t u32_param(const ParamMap& params, const std::string& key,
                        std::uint32_t fallback, std::uint32_t min,
                        const char* note = "") {
  if (!params.has(key)) return fallback;
  std::int64_t value = -1;
  try {
    value = params.get_int(key, fallback);
  } catch (const std::exception&) {
    // Not an integer, or beyond int64: rejected below like any bad value.
  }
  if (value < static_cast<std::int64_t>(min) || value > 0xFFFFFFFFll)
    throw std::invalid_argument("--" + key + " must be an integer in [" +
                                std::to_string(min) + ", 4294967295]" + note +
                                ", got '" + params.get(key, "") + "'");
  return static_cast<std::uint32_t>(value);
}

}  // namespace

RunRequest run_request_from_params(const ParamMap& params) {
  RunRequest req;
  req.id = params.get("id", "");
  req.graph = params.get("graph", "regular");
  req.process = params.get("process", "eprocess");
  req.params = params;
  req.trials = u32_param(params, "trials", 5, 1);
  req.threads =
      u32_param(params, "threads", 1, 0, " (0 = all hardware threads)");
  req.seed = params.get_u64("seed", 1);
  req.max_steps = params.get_u64("max-steps", 0);
  req.target = parse_run_target(params.get("target", ""));
  req.target_tokens = u32_param(params, "target-tokens", 1, 1);
  req.bundle_width = u32_param(params, "bundle", 1, 1);
  req.analysis = params.get_bool("analysis", false);
  return req;
}

RunResult execute_run(const RunRequest& req, GraphStore* store) {
  RunResult out;
  try {
    if (req.trials == 0) throw std::invalid_argument("--trials must be >= 1");
    // Validate both registry names before touching the graph cache, so a
    // typo'd request fails fast with nearest-match suggestions and costs no
    // construction (store counters stay meaningful).
    ProcessRegistry::instance().at(req.process);
    GeneratorRegistry::instance().at(req.graph);

    // The graph is built on this thread as a member of a scope capped at
    // req.threads, so a build that splits across the Executor
    // (Graph::from_edges, the generators' overlapped passes) counts against
    // --threads like the trials do. Inside ewalkd this scope nests under
    // the server's.
    std::shared_ptr<const CachedGraph> cached;
    bool cache_hit = false;
    TaskScope build_scope(req.threads == 0 ? Executor::hardware_threads()
                                           : req.threads);
    build_scope.run_inline([&] {
      if (store != nullptr) {
        cached = store->acquire(req.graph, req.params, req.seed, &cache_hit);
      } else {
        cached = CachedGraph::build(req.graph, req.params, req.seed);
      }
    });
    const Graph& g = cached->graph();

    // Resolve the target from the registry's token flag: token processes
    // default to coalescence, and a coalescence target on a non-token
    // process is rejected on this thread, not inside a worker. Bad process
    // params surface from the trials' own construction, which the trial
    // scheduler rethrows here.
    const bool is_token = ProcessRegistry::instance().is_token(req.process);
    RunRequest plan = req;
    if (plan.target == RunTarget::kAuto)
      plan.target = is_token ? RunTarget::kCoalescence : RunTarget::kVertices;
    if (plan.target == RunTarget::kCoalescence && !is_token)
      throw std::invalid_argument(
          "--target coalescence needs an interacting-token process");

    // One registry-constructed process per trial on the shared graph.
    out = run_trial_plan(plan, [&](Rng& rng, std::uint32_t) {
      return TrialState{
          nullptr,
          ProcessRegistry::instance().create(req.process, g, req.params, rng)};
    });
    out.graph = cached;
    out.graph_cache_hit = cache_hit;

    if (req.analysis) {
      bool hit = false;
      out.analysis = cached->analysis(&hit);
      out.analysis_cache_hit = hit;
      if (store != nullptr) store->note_analysis(hit);
    }
    out.ok = true;
  } catch (const std::exception& ex) {
    out.ok = false;
    out.error = ex.what();
  }
  out.id = req.id;
  return out;
}

}  // namespace ewalk
