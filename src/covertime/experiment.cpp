#include "covertime/experiment.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "engine/budget.hpp"
#include "engine/driver.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "walks/srw.hpp"

namespace ewalk {

namespace {

// Runs every trial until `predicate` holds or its budget is spent — one
// trial through the sequential reference driver, several interleaved — and
// reads each sample with `target_step`, the budget standing in for trials
// that missed.
template <typename Predicate, typename TargetStep>
std::vector<TargetOutcome> drive(std::span<const BundleTrial> trials,
                                 const Predicate& predicate,
                                 const TargetStep& target_step) {
  std::vector<std::uint8_t> finished;
  if (trials.size() == 1) {
    const BundleTrial& t = trials[0];
    finished.push_back(run_until_process(
        *t.process, *t.rng, predicate, t.max_steps,
        std::max<std::uint64_t>(1, t.check_stride)));
  } else {
    finished = run_trial_bundle(trials, predicate);
  }
  std::vector<TargetOutcome> out(trials.size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const WalkProcess& p = *trials[i].process;
    out[i].finished = finished[i] != 0;
    out[i].steps = p.steps();
    out[i].sample = static_cast<double>(out[i].finished ? target_step(p)
                                                        : trials[i].max_steps);
  }
  return out;
}

// The TokenProcess view of `p`; drive_to_target checks the type first.
const TokenProcess& as_tokens(const WalkProcess& p) {
  return static_cast<const TokenProcess&>(p);
}

// A setup that draws a fresh graph per trial, then the trial's process on
// it, both from the trial's stream (graph first, as Figure 1 does).
template <typename Factory>
TrialSetup fresh_graph_setup(const GraphFactory& graphs,
                             const Factory& processes) {
  return [&graphs, &processes](Rng& rng, std::uint32_t) {
    TrialState state;
    state.graph = std::make_unique<Graph>(graphs(rng));
    state.process = processes(*state.graph, rng);
    return state;
  };
}

}  // namespace

void for_each_bundle(
    std::uint32_t lo, std::uint32_t hi, std::uint32_t width,
    std::uint32_t threads,
    const std::function<void(std::uint32_t, std::uint32_t)>& fn) {
  width = std::max(1u, width);
  const std::uint32_t bundles = hi > lo ? (hi - lo - 1) / width + 1 : 0;
  std::uint32_t workers = threads == 0 ? Executor::hardware_threads() : threads;
  workers = std::min(workers, bundles);
  if (workers <= 1) {
    for (std::uint32_t b = lo; b < hi; b += std::min(width, hi - b))
      fn(b, b + std::min(width, hi - b));
    return;
  }
  // Trial streams are pure functions of trial indices, so which thread
  // steals a bundle cannot affect a result; the cap keeps at most
  // `workers` threads on a root call.
  TaskScope scope(workers);
  for (std::uint32_t b = lo; b < hi; b += std::min(width, hi - b)) {
    const std::uint32_t e = b + std::min(width, hi - b);
    scope.spawn([&fn, b, e] { fn(b, e); });
  }
  scope.wait();
}

std::vector<double> run_trials(std::uint32_t count, std::uint32_t threads,
                               std::uint64_t master_seed,
                               const std::function<double(Rng&, std::uint32_t)>& fn) {
  std::vector<Rng> streams = derive_streams(master_seed, count);
  std::vector<double> results(count, 0.0);
  for_each_bundle(0, count, 1, threads, [&](std::uint32_t i, std::uint32_t) {
    results[i] = fn(streams[i], i);
  });
  return results;
}

SummaryStats run_trials_summary(std::uint32_t count, std::uint32_t threads,
                                std::uint64_t master_seed,
                                const std::function<double(Rng&, std::uint32_t)>& fn) {
  const auto samples = run_trials(count, threads, master_seed, fn);
  return summarize(samples);
}

std::vector<TargetOutcome> drive_to_target(std::span<const BundleTrial> trials,
                                           RunTarget target,
                                           std::uint32_t target_tokens) {
  switch (target) {
    case RunTarget::kEdges:
      return drive(
          trials,
          [](const WalkProcess& p) { return p.cover().all_edges_covered(); },
          [](const WalkProcess& p) { return p.cover().edge_cover_step(); });
    case RunTarget::kCoalescence: {
      for (const BundleTrial& t : trials)
        if (dynamic_cast<const TokenProcess*>(t.process) == nullptr)
          throw std::invalid_argument(
              "target coalescence needs an interacting-token process");
      std::vector<TargetOutcome> out = drive(
          trials,
          [at_most = TokensAtMost{target_tokens}](const WalkProcess& p) {
            return at_most(as_tokens(p));
          },
          // With stride 1 the driver stops on the first step the population
          // hits the target; for target 1 the recorded coalescence step is
          // that same step.
          [target_tokens](const WalkProcess& p) {
            return target_tokens <= 1 ? as_tokens(p).coalescence_step()
                                      : p.steps();
          });
      for (std::size_t i = 0; i < trials.size(); ++i) {
        const std::uint64_t met =
            as_tokens(*trials[i].process).first_meeting_step();
        out[i].meeting = static_cast<double>(
            met != kNotCovered ? met : trials[i].max_steps);
      }
      return out;
    }
    case RunTarget::kAuto:
    case RunTarget::kVertices:
      break;
  }
  return drive(
      trials,
      [](const WalkProcess& p) { return p.cover().all_vertices_covered(); },
      [](const WalkProcess& p) { return p.cover().vertex_cover_step(); });
}

RunResult run_trial_plan(const RunRequest& req, const TrialSetup& setup) {
  RunResult out;
  out.target =
      req.target == RunTarget::kAuto ? RunTarget::kVertices : req.target;
  std::vector<Rng> streams = derive_streams(req.seed, req.trials);
  std::vector<TargetOutcome> outcomes(req.trials);
  std::vector<std::uint64_t> budgets(req.trials, 0);
  WallTimer timer;
  for_each_bundle(
      0, req.trials, req.bundle_width, req.threads,
      [&](std::uint32_t lo, std::uint32_t hi) {
        // The trials of one bundle live together: BundleTrial borrows each
        // process and stream, and each process borrows its graph.
        std::vector<TrialState> states;
        states.reserve(hi - lo);
        std::vector<BundleTrial> bundle;
        bundle.reserve(hi - lo);
        for (std::uint32_t t = lo; t < hi; ++t) {
          const TrialState& state = states.emplace_back(setup(streams[t], t));
          budgets[t] = req.max_steps != 0
                           ? req.max_steps
                           : default_step_budget(state.process->graph());
          bundle.push_back(
              BundleTrial{state.process.get(), &streams[t], budgets[t], 1});
        }
        const std::vector<TargetOutcome> driven =
            drive_to_target(bundle, out.target, req.target_tokens);
        std::copy(driven.begin(), driven.end(), outcomes.begin() + lo);
      });
  out.wall_seconds = timer.seconds();

  out.budget =
      budgets.empty() ? 0 : *std::max_element(budgets.begin(), budgets.end());
  const bool coalescence = out.target == RunTarget::kCoalescence;
  for (const TargetOutcome& o : outcomes) {
    out.samples.push_back(o.sample);
    out.step_samples.push_back(static_cast<double>(o.steps));
    if (coalescence) out.meeting_samples.push_back(o.meeting);
    if (!o.finished) ++out.unfinished;
  }
  out.stats = summarize(out.samples);
  if (coalescence) out.meeting_stats = summarize(out.meeting_samples);
  out.total_steps = std::accumulate(out.step_samples.begin(),
                                    out.step_samples.end(), 0.0);
  return out;
}

CoverExperimentResult measure_cover(const ProcessFactory& processes,
                                    const GraphFactory& graphs,
                                    const RunRequest& req) {
  if (req.target == RunTarget::kCoalescence)
    throw std::invalid_argument(
        "measure_cover: target coalescence needs measure_coalescence");
  RunResult run = run_trial_plan(req, fresh_graph_setup(graphs, processes));
  return CoverExperimentResult{run.stats, std::move(run.samples),
                               run.unfinished};
}

CoalescenceExperimentResult measure_coalescence(
    const TokenProcessFactory& processes, const GraphFactory& graphs,
    const RunRequest& req) {
  RunRequest coalescence = req;
  coalescence.target = RunTarget::kCoalescence;
  RunResult run =
      run_trial_plan(coalescence, fresh_graph_setup(graphs, processes));
  return CoalescenceExperimentResult{run.stats, std::move(run.samples),
                                     run.meeting_stats,
                                     std::move(run.meeting_samples),
                                     run.unfinished};
}

CoverExperimentResult measure_eprocess_cover(const GraphFactory& graphs,
                                             const RuleFactory& rules,
                                             const RunRequest& req) {
  return measure_cover(
      [&rules](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
        return std::make_unique<EProcessHandle>(g, /*start=*/0, rules(g));
      },
      graphs, req);
}

CoverExperimentResult measure_srw_cover(const GraphFactory& graphs,
                                        const RunRequest& req) {
  return measure_cover(
      [](const Graph& g, Rng&) -> std::unique_ptr<WalkProcess> {
        return std::make_unique<SimpleRandomWalk>(g, /*start=*/0);
      },
      graphs, req);
}

}  // namespace ewalk
