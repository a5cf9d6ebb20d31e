// The trial core and the multi-trial experiments built on it.
//
// Every surface that runs trials goes through one trial-execution path:
// execute_run (the `ewalk` single-run mode and the `ewalkd` daemon,
// serve/request.hpp), the harnesses below, and run_sweep
// (sweep/sweep.hpp). The path has three pieces:
//   * for_each_bundle — the one chunk scheduler: packs trials [lo, hi) into
//     consecutive bundles of `width` and runs them inline or as the tasks
//     of one capped TaskScope;
//   * drive_to_target — the one kernel: drives a bundle of trials to a
//     RunTarget (width 1 through run_until_process, the sequential
//     reference; width > 1 through the interleaved run_trial_bundle) and
//     turns each trial into its sample;
//   * run_trial_plan — a RunRequest's trials end to end: one stream per
//     trial derived from req.seed, a caller-supplied setup that builds each
//     trial's process (and, for the harnesses, its graph) from that stream,
//     then bundling and threads as the request asks.
//
// Determinism: trial t's stream is a pure function of (seed, t), and a
// bundled trial replays the sequential check schedule, so samples are
// bit-identical across thread counts and bundle widths.
//
// The harnesses (Figure 1 plots the trial-mean normalised cover time, 5
// trials per point, a new random graph per trial):
//   * measure_cover — any WalkProcess factory, any graph factory, vertex or
//     edge target;
//   * measure_eprocess_cover / measure_srw_cover — thin wrappers over
//     measure_cover for the two walks the paper benchmarks head-to-head;
//   * measure_coalescence — any TokenProcess factory, driven to a
//     token-population target, reporting coalescence and first-meeting
//     times.
// All of them take the canonical RunRequest (serve/request.hpp), the same
// struct the CLI and the ewalkd server construct.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/bundle.hpp"
#include "engine/process.hpp"
#include "engine/token_process.hpp"
#include "graph/graph.hpp"
#include "serve/request.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "walks/eprocess.hpp"

namespace ewalk {

// ---- The trial core -------------------------------------------------------

/// The chunk scheduler: calls `fn(b, e)` for the consecutive bundles
/// [b, e) of at most `width` trials (<= 1 means one trial each) that tile
/// [lo, hi) in ascending order. With one bundle, or `threads` <= 1, the
/// bundles run inline on the caller; otherwise each bundle is one task of a
/// TaskScope capped at min(threads, bundles) threads (0 = hardware
/// threads; the cap only binds on a root scope). Returns once every bundle
/// finished and rethrows the first exception a bundle threw.
void for_each_bundle(
    std::uint32_t lo, std::uint32_t hi, std::uint32_t width,
    std::uint32_t threads,
    const std::function<void(std::uint32_t, std::uint32_t)>& fn);

/// Runs `count` trials of `fn`, each with an independent stream derived from
/// `master_seed`, with up to `threads`-way parallelism (0 => hardware
/// default) through for_each_bundle — one trial per task, and callers
/// already inside a scope nest cleanly. Trial i's stream depends only on
/// (master_seed, i), so results are bit-identical across thread counts and
/// are returned in trial order. `fn` must be safe to call concurrently from
/// several threads (it receives a private Rng).
std::vector<double> run_trials(std::uint32_t count, std::uint32_t threads,
                               std::uint64_t master_seed,
                               const std::function<double(Rng&, std::uint32_t)>& fn);

/// run_trials + summarize.
SummaryStats run_trials_summary(std::uint32_t count, std::uint32_t threads,
                                std::uint64_t master_seed,
                                const std::function<double(Rng&, std::uint32_t)>& fn);

/// What drive_to_target reports for one trial.
struct TargetOutcome {
  double sample = 0.0;      ///< step the target was reached, else the budget
  bool finished = false;    ///< the target was reached within the budget
  std::uint64_t steps = 0;  ///< transitions made
  double meeting = 0.0;     ///< coalescence: first meeting (budget if none)
};

/// The one kernel that drives trials to a target: one trial runs through
/// run_until_process, more run interleaved through run_trial_bundle, each
/// with its own rng, budget (BundleTrial::max_steps) and check stride. The
/// sample is the vertex-cover step (kVertices, kAuto), the edge-cover step
/// (kEdges), or for kCoalescence the step the population fell to
/// `target_tokens` (the coalescence step when that is 1). A trial that
/// misses its target contributes its budget. kCoalescence needs every
/// process to be a TokenProcess and throws std::invalid_argument
/// otherwise. Outcomes come back in trial order.
std::vector<TargetOutcome> drive_to_target(std::span<const BundleTrial> trials,
                                           RunTarget target,
                                           std::uint32_t target_tokens);

/// One trial as a TrialSetup builds it: the process, and the graph it walks
/// on when the trial owns one (the harnesses draw a fresh graph per trial).
/// `graph` stays null when the graph is shared and outlives the run.
struct TrialState {
  std::unique_ptr<Graph> graph;          ///< trial-owned graph, or null
  std::unique_ptr<WalkProcess> process;  ///< the walk the trial drives
};

/// Builds trial t's state from trial t's private stream — the stream the
/// trial is then driven with, so construction-time draws come first. Must be
/// safe to call concurrently for different trials.
using TrialSetup = std::function<TrialState(Rng&, std::uint32_t)>;

/// Runs the trials of `req`: trial t gets stream t of derive_streams(seed,
/// trials), `setup` builds its state, and the trials are driven to
/// req.target (kAuto: vertex cover) in bundles of req.bundle_width on up to
/// req.threads threads. Each trial's budget is req.max_steps, or
/// default_step_budget of its process's graph when that is 0. Fills the
/// trial fields of RunResult — target, budget (the largest trial budget),
/// samples, stats, unfinished, step_samples, total_steps, wall_seconds, and
/// for coalescence the meeting samples; `ok`, `id` and the graph fields are
/// the caller's. Exceptions from `setup` propagate.
RunResult run_trial_plan(const RunRequest& req, const TrialSetup& setup);

// ---- Cover experiments ----------------------------------------------------

/// What a cover-time trial should measure.
enum class CoverTarget : std::uint8_t { kVertices, kEdges };

/// Factory producing a fresh graph for each trial (Figure 1 draws a new
/// random regular graph per experiment).
using GraphFactory = std::function<Graph(Rng&)>;

/// Factory producing a fresh rule per trial (rules can be stateful).
using RuleFactory = std::function<std::unique_ptr<UnvisitedEdgeRule>(const Graph&)>;

/// Factory producing a fresh walk process per trial. The rng is the trial's
/// private stream — construction-time draws (e.g. a priority rule's
/// permutation) come out of the same stream the walk is then driven with.
using ProcessFactory =
    std::function<std::unique_ptr<WalkProcess>(const Graph&, Rng&)>;

/// Cover-time samples over `trials` fresh (graph, process) pairs. Trials
/// that fail to cover within max_steps contribute max_steps (and are
/// counted in `uncovered_trials`).
struct CoverExperimentResult {
  SummaryStats stats;               ///< cover-time samples
  std::vector<double> samples;      ///< one per trial, trial order
  std::uint32_t uncovered_trials = 0;
};

/// The one generic cover experiment: run_trial_plan with a fresh graph and
/// process per trial, built in that order from the trial's stream. Consumes
/// the run-scheduling fields of `req` (trials, threads, seed, max_steps,
/// target, bundle_width); registry/protocol fields (graph, process, params,
/// id) are ignored here — factories already bound them. RunTarget::kAuto
/// resolves to vertex cover; kCoalescence is rejected (use
/// measure_coalescence).
CoverExperimentResult measure_cover(const ProcessFactory& processes,
                                    const GraphFactory& graphs,
                                    const RunRequest& req);

/// E-process convenience wrapper: walk started at vertex 0 with a fresh
/// rule per trial.
CoverExperimentResult measure_eprocess_cover(const GraphFactory& graphs,
                                             const RuleFactory& rules,
                                             const RunRequest& req);

/// Same, for the simple random walk.
CoverExperimentResult measure_srw_cover(const GraphFactory& graphs,
                                        const RunRequest& req);

// ---- Coalescence experiments (interacting walkers) ------------------------

/// Factory producing a fresh interacting-token process per trial; the rng is
/// the trial's private stream, exactly as for ProcessFactory.
using TokenProcessFactory =
    std::function<std::unique_ptr<TokenProcess>(const Graph&, Rng&)>;

/// Coalescence-time samples over `trials` fresh (graph, process) pairs.
/// Trials whose population fails to reach the target within max_steps
/// contribute max_steps (and are counted in `unfinished_trials`); trials
/// where no pair of tokens ever met contribute max_steps to the meeting
/// samples likewise.
struct CoalescenceExperimentResult {
  SummaryStats stats;                    ///< step population reached target
  std::vector<double> samples;           ///< one per trial, trial order
  SummaryStats meeting_stats;            ///< first-meeting step
  std::vector<double> meeting_samples;   ///< one per trial, trial order
  std::uint32_t unfinished_trials = 0;
};

/// The interacting-walker mirror of measure_cover: run_trial_plan with a
/// fresh graph and token process per trial, driven to the population
/// target. Consumes trials, threads, seed, max_steps, target_tokens and
/// bundle_width of `req`; the target enum is ignored (this experiment is
/// always a coalescence run).
CoalescenceExperimentResult measure_coalescence(
    const TokenProcessFactory& processes, const GraphFactory& graphs,
    const RunRequest& req);

}  // namespace ewalk
