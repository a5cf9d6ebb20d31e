#include "serve/request.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "covertime/experiment.hpp"
#include "engine/budget.hpp"
#include "engine/driver.hpp"
#include "engine/registry.hpp"
#include "engine/token_process.hpp"
#include "graph/algorithms.hpp"
#include "util/timer.hpp"

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

RunRequest run_request_from_params(const ParamMap& params) {
  RunRequest req;
  req.id = params.get("id", "");
  req.graph = params.get("graph", "regular");
  req.process = params.get("process", "eprocess");
  req.params = params;
  const std::int64_t trials = params.get_int("trials", 5);
  if (trials <= 0) throw std::invalid_argument("--trials must be >= 1");
  req.trials = static_cast<std::uint32_t>(trials);
  const std::int64_t threads = params.get_int("threads", 1);
  if (threads < 0)
    throw std::invalid_argument(
        "--threads must be >= 0 (0 = all hardware threads)");
  req.threads = static_cast<std::uint32_t>(threads);
  req.seed = params.get_u64("seed", 1);
  req.max_steps = params.get_u64("max-steps", 0);
  req.target = parse_run_target(params.get("target", ""));
  req.target_tokens =
      static_cast<std::uint32_t>(params.get_u64("target-tokens", 1));
  req.bundle_width = static_cast<std::uint32_t>(params.get_u64("bundle", 1));
  req.analysis = params.get_bool("analysis", false);
  return req;
}

namespace {

// The trial phase shared by every target: one registry-constructed process
// per trial on the shared graph, driven to the resolved target — the exact
// loop tools/ewalk_cli.cpp ran before this module existed, so CLI and
// server samples are bit-identical by construction.
void run_request_trials(const RunRequest& req, const Graph& g,
                        RunResult& out) {
  const bool coalescence = out.target == RunTarget::kCoalescence;
  const bool edges = out.target == RunTarget::kEdges;
  const std::uint64_t budget =
      req.max_steps != 0 ? req.max_steps : default_step_budget(g);
  out.budget = budget;
  std::vector<double> steps(req.trials, 0.0);
  std::vector<double> meetings(req.trials, 0.0);
  std::atomic<std::uint32_t> unfinished{0};
  WallTimer timer;
  out.samples = run_trials(
      req.trials, req.threads, req.seed,
      [&](Rng& rng, std::uint32_t t) -> double {
        auto walk =
            ProcessRegistry::instance().create(req.process, g, req.params, rng);
        bool done;
        std::uint64_t result_step;
        if (coalescence) {
          auto& tokens = dynamic_cast<TokenProcess&>(*walk);
          done = run_until_process(tokens, rng,
                                   TokensAtMost{req.target_tokens}, budget);
          result_step = req.target_tokens <= 1 ? tokens.coalescence_step()
                                               : tokens.steps();
          const std::uint64_t met = tokens.first_meeting_step();
          meetings[t] = static_cast<double>(met != kNotCovered ? met : budget);
        } else if (edges) {
          done = run_until(*walk, rng, EdgesCovered{}, budget);
          result_step = walk->cover().edge_cover_step();
        } else {
          done = run_until(*walk, rng, VertexCovered{}, budget);
          result_step = walk->cover().vertex_cover_step();
        }
        if (!done) unfinished.fetch_add(1, std::memory_order_relaxed);
        steps[t] = static_cast<double>(walk->steps());
        // Unfinished trials contribute the budget, as measure_cover does.
        return static_cast<double>(done ? result_step : budget);
      });
  out.wall_seconds = timer.seconds();
  out.stats = summarize(out.samples);
  out.unfinished = unfinished.load();
  out.step_samples = std::move(steps);
  out.total_steps = std::accumulate(out.step_samples.begin(),
                                    out.step_samples.end(), 0.0);
  if (coalescence) {
    out.meeting_samples = std::move(meetings);
    out.meeting_stats = summarize(out.meeting_samples);
  }
}

}  // namespace

RunResult execute_run(const RunRequest& req, GraphStore* store) {
  RunResult out;
  out.id = req.id;
  try {
    if (req.trials == 0) throw std::invalid_argument("--trials must be >= 1");
    // Validate both registry names before touching the graph cache, so a
    // typo'd request fails fast with nearest-match suggestions and costs no
    // construction (store counters stay meaningful).
    ProcessRegistry::instance().at(req.process);
    GeneratorRegistry::instance().at(req.graph);

    std::shared_ptr<const CachedGraph> cached;
    if (store != nullptr) {
      cached = store->acquire(req.graph, req.params, req.seed,
                              &out.graph_cache_hit);
    } else {
      Rng graph_rng(req.seed);
      Graph g =
          GeneratorRegistry::instance().create(req.graph, req.params, graph_rng);
      const bool connected = is_connected(g);
      cached = std::make_shared<CachedGraph>(std::move(g), connected);
    }
    out.graph = cached;
    const Graph& g = cached->graph();

    // Resolve the target from the registry's token flag: token processes
    // default to coalescence, and a coalescence target on a non-token
    // process is rejected on this thread, not inside a worker. Bad process
    // params surface from the trials' own construction, which run_trials
    // rethrows here.
    const bool is_token = ProcessRegistry::instance().is_token(req.process);
    RunTarget target = req.target;
    if (target == RunTarget::kAuto)
      target = is_token ? RunTarget::kCoalescence : RunTarget::kVertices;
    if (target == RunTarget::kCoalescence && !is_token)
      throw std::invalid_argument(
          "--target coalescence needs an interacting-token process");
    out.target = target;

    run_request_trials(req, g, out);

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
  return out;
}

}  // namespace ewalk
