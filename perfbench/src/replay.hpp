// The traced replay of one run request: ewalk::execute_run re-enacted from
// the library's public layer functions, with a span around every call.
//
// execute_run is one opaque call, so the benchmark re-enacts it from the
// layers execute_run itself calls — the GraphStore (or the generator
// registry plus is_connected), the probe construction, run_trials with a
// registry construction and a run_until per trial, and the cached
// analysis — in the same order, with the same streams. The re-enactment
// must return the very samples execute_run returns; every workload checks
// that, so a replay that drifted from the real path fails the run instead
// of timing something else.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common.hpp"
#include "serve/graph_store.hpp"
#include "serve/request.hpp"

namespace perfbench {

/// Layer observations accumulated over replayed requests.
struct ReplayStats {
  std::mutex mutex;  // guards everything below (trials run in parallel)
  StepTally steps;
  double total_steps = 0.0;
  std::vector<double> create_s;         ///< per process construction
  std::vector<double> walk_s;           ///< per trial
  std::vector<double> acquire_hit_s;    ///< GraphStore::acquire served from cache
  std::vector<double> acquire_miss_s;   ///< GraphStore::acquire that built the graph
  std::vector<double> generate_s;       ///< generator registry (no store)
  std::vector<double> connectivity_s;   ///< is_connected (no store)
  std::vector<double> probe_s;          ///< execute_run's extra probe construction
  std::vector<double> run_trials_s;     ///< run_trials wall per request
  std::vector<double> analysis_miss_s;  ///< first CachedGraph::analysis per entry
};

/// Re-enacts execute_run(req, store) under spans parented to `parent` and
/// tagged with `request`. Returns the RunResult execute_run would return
/// (timing fields aside) and folds the layer timings into `stats`.
ewalk::RunResult replay_execute_run(const ewalk::RunRequest& req,
                                    ewalk::GraphStore* store, Tracer& tracer,
                                    std::int64_t parent, std::int64_t request,
                                    ReplayStats& stats);

/// `line` with the fields that may differ between two runs of one request
/// removed: timing (wall_seconds) and cache state (the cache_hit flags,
/// which depend on what the store held when the request arrived).
std::string strip_volatile_fields(const std::string& line);

}  // namespace perfbench
