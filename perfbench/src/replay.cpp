#include "replay.hpp"

#include <atomic>
#include <optional>
#include <stdexcept>

#include "covertime/experiment.hpp"
#include "engine/budget.hpp"
#include "engine/driver.hpp"
#include "engine/registry.hpp"
#include "engine/token_process.hpp"
#include "graph/algorithms.hpp"
#include "stats.hpp"
#include "util/timer.hpp"

namespace perfbench {

using ewalk::RunRequest;
using ewalk::RunResult;
using ewalk::RunTarget;

RunResult replay_execute_run(const RunRequest& req, ewalk::GraphStore* store,
                             Tracer& tracer, std::int64_t parent,
                             std::int64_t request, ReplayStats& stats) {
  RunResult out;
  out.id = req.id;
  try {
    if (req.trials == 0) throw std::invalid_argument("--trials must be >= 1");
    ewalk::ProcessRegistry::instance().at(req.process);
    ewalk::GeneratorRegistry::instance().at(req.graph);

    std::shared_ptr<const ewalk::CachedGraph> cached;
    if (store != nullptr) {
      std::int64_t id;
      {
        Scoped span(&tracer, "serve.store.acquire", parent, request);
        id = span.id();
        cached = store->acquire(req.graph, req.params, req.seed, &out.graph_cache_hit);
      }
      const double s = tracer.duration(id);
      std::lock_guard<std::mutex> lock(stats.mutex);
      (out.graph_cache_hit ? stats.acquire_hit_s : stats.acquire_miss_s).push_back(s);
    } else {
      ewalk::Rng graph_rng(req.seed);
      std::int64_t gen_id, conn_id;
      std::optional<ewalk::Graph> g;
      {
        Scoped span(&tracer, "graph.generate", parent, request);
        gen_id = span.id();
        g.emplace(ewalk::GeneratorRegistry::instance().create(req.graph, req.params,
                                                              graph_rng));
      }
      bool connected;
      {
        Scoped span(&tracer, "graph.connectivity", parent, request);
        conn_id = span.id();
        connected = ewalk::is_connected(*g);
      }
      cached = std::make_shared<ewalk::CachedGraph>(std::move(*g), connected);
      std::lock_guard<std::mutex> lock(stats.mutex);
      stats.generate_s.push_back(tracer.duration(gen_id));
      stats.connectivity_s.push_back(tracer.duration(conn_id));
    }
    out.graph = cached;
    const ewalk::Graph& g = cached->graph();

    RunTarget target = req.target;
    std::int64_t probe_id;
    {
      Scoped span(&tracer, "serve.request.probe", parent, request);
      probe_id = span.id();
      ewalk::Rng probe_rng(req.seed);
      auto probe =
          ewalk::ProcessRegistry::instance().create(req.process, g, req.params, probe_rng);
      const bool is_token = dynamic_cast<ewalk::TokenProcess*>(probe.get()) != nullptr;
      if (target == RunTarget::kAuto)
        target = is_token ? RunTarget::kCoalescence : RunTarget::kVertices;
      if (target == RunTarget::kCoalescence && !is_token)
        throw std::invalid_argument(
            "--target coalescence needs an interacting-token process");
    }
    out.target = target;

    const bool coalescence = target == RunTarget::kCoalescence;
    const bool edges = target == RunTarget::kEdges;
    const std::uint64_t budget =
        req.max_steps != 0 ? req.max_steps : ewalk::default_step_budget(g);
    out.budget = budget;
    std::vector<double> steps(req.trials, 0.0);
    std::vector<double> meetings(req.trials, 0.0);
    std::vector<double> create_s(req.trials, 0.0), walk_s(req.trials, 0.0);
    std::atomic<std::uint32_t> unfinished{0};
    std::int64_t trials_id;
    {
      Scoped span(&tracer, "covertime.run_trials", parent, request);
      trials_id = span.id();
      ewalk::WallTimer timer;
      out.samples = ewalk::run_trials(
          req.trials, req.threads, req.seed,
          [&](ewalk::Rng& rng, std::uint32_t t) -> double {
            std::unique_ptr<ewalk::WalkProcess> walk;
            {
              Scoped c(&tracer, "engine.create", trials_id, request);
              ewalk::WallTimer ct;
              walk = ewalk::ProcessRegistry::instance().create(req.process, g,
                                                               req.params, rng);
              create_s[t] = ct.seconds();
            }
            Scoped w(&tracer, "engine.walk", trials_id, request);
            ewalk::WallTimer wt;
            bool done;
            std::uint64_t result_step;
            if (coalescence) {
              auto& tokens = dynamic_cast<ewalk::TokenProcess&>(*walk);
              done = ewalk::run_until_process(
                  tokens, rng, ewalk::TokensAtMost{req.target_tokens}, budget);
              result_step = req.target_tokens <= 1 ? tokens.coalescence_step()
                                                   : tokens.steps();
              const std::uint64_t met = tokens.first_meeting_step();
              meetings[t] =
                  static_cast<double>(met != ewalk::kNotCovered ? met : budget);
            } else if (edges) {
              done = ewalk::run_until(*walk, rng, ewalk::EdgesCovered{}, budget);
              result_step = walk->cover().edge_cover_step();
            } else {
              done = ewalk::run_until(*walk, rng, ewalk::VertexCovered{}, budget);
              result_step = walk->cover().vertex_cover_step();
            }
            walk_s[t] = wt.seconds();
            if (!done) unfinished.fetch_add(1, std::memory_order_relaxed);
            steps[t] = static_cast<double>(walk->steps());
            return static_cast<double>(done ? result_step : budget);
          });
      out.wall_seconds = timer.seconds();
    }
    out.stats = ewalk::summarize(out.samples);
    out.unfinished = unfinished.load();
    out.step_samples = std::move(steps);
    out.total_steps = sum(out.step_samples);
    if (coalescence) {
      out.meeting_samples = std::move(meetings);
      out.meeting_stats = ewalk::summarize(out.meeting_samples);
    }

    if (req.analysis) {
      bool hit = false;
      std::int64_t id;
      {
        Scoped span(&tracer, "analysis.compute", parent, request);
        id = span.id();
        out.analysis = cached->analysis(&hit);
      }
      out.analysis_cache_hit = hit;
      if (store != nullptr) store->note_analysis(hit);
      if (!hit) {
        std::lock_guard<std::mutex> lock(stats.mutex);
        stats.analysis_miss_s.push_back(tracer.duration(id));
      }
    }
    out.ok = true;

    std::lock_guard<std::mutex> lock(stats.mutex);
    stats.probe_s.push_back(tracer.duration(probe_id));
    stats.run_trials_s.push_back(out.wall_seconds);
    stats.create_s.insert(stats.create_s.end(), create_s.begin(), create_s.end());
    stats.walk_s.insert(stats.walk_s.end(), walk_s.begin(), walk_s.end());
    stats.steps.add(req.process, out.total_steps,
                    sum(walk_s));
    stats.total_steps += out.total_steps;
  } catch (const std::exception& ex) {
    out.ok = false;
    out.error = ex.what();
  }
  return out;
}

std::string strip_volatile_fields(const std::string& line) {
  // The fields' values are numbers or booleans, so each ends at the next
  // ',' or '}'.
  std::string out = line;
  for (const std::string key : {",\"wall_seconds\":", ",\"cache_hit\":"}) {
    for (std::size_t pos; (pos = out.find(key)) != std::string::npos;)
      out.erase(pos, out.find_first_of(",}", pos + key.size()) - pos);
  }
  return out;
}

}  // namespace perfbench
