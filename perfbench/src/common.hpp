// Shared plumbing of the benchmark's workloads: options, the report every
// run prints, seed derivation, and the layer probes more than one workload
// uses.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "trace.hpp"

namespace perfbench {

using ewalk::Graph;

/// Trial, sweep and server parallelism of every workload. The reference VM
/// has 4 vCPUs, but its host at times delivers only about 3 cores: then 4
/// busy threads each run ~1.6x slower while 3 run at full speed, so 3
/// keeps the figures from flipping with the host's load.
inline constexpr std::uint32_t kThreads = 3;

/// Command-line options (see main.cpp).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< nominal length of the measured phase
  bool trace = false;     ///< traced replay: per-layer metrics instead of end-to-end
  std::string trace_out;  ///< Chrome trace-event JSON path (traced runs)
};

/// What one run reports: correctness, attempted/failed work, and metrics by
/// name. run.py attaches the units declared in BENCHMARK.json.
class Report {
 public:
  /// Records an output check; any failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { metrics_[name] = value; }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// failed ÷ attempted (0 before anything was attempted).
  double failed_frac() const {
    return attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0.0;
  }

  /// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
  std::string json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, double> metrics_;
};

/// A workload-local seed: a pure function of (seed, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Runs `setup` `reps` times and returns the median wall seconds.
double median_setup_seconds(int reps, const std::function<void()>& setup);

/// Computed CSR bytes of `g` (offsets + slots + edge list), the same
/// formula GraphStore meters its budget with.
std::uint64_t csr_bytes(const Graph& g);

/// Computed BluePartition bytes of one E-process on `g` (slot order, slot
/// positions, per-edge slot and per-vertex blue counts).
std::uint64_t blue_partition_bytes(const Graph& g);

/// The graph layer's parts re-measured on `g`: Graph::from_edges on a copy
/// of its edge list, and is_connected. Seconds, each the median of `reps`.
struct GraphLayerTimes {
  double csr_build_s = 0.0;
  double connectivity_s = 0.0;
};
GraphLayerTimes measure_graph_layer(const Graph& g, int reps);

/// Empty-task spawn+wait cost on the Executor, microseconds per task:
/// `flat` spawns from one scope, `nested` from scopes inside tasks.
struct ExecutorCost {
  double flat_us = 0.0;
  double nested_us = 0.0;
};
ExecutorCost measure_executor(std::uint32_t threads);

/// Walk throughput by process name: transitions and walking seconds.
struct StepTally {
  std::map<std::string, std::pair<double, double>> by_process;  // steps, seconds
  void add(const std::string& process, double steps, double seconds) {
    auto& [s, t] = by_process[process];
    s += steps;
    t += seconds;
  }
  /// Publishes engine.steps_per_s.<process> for every tallied process.
  void publish(Report& report) const;
};

/// Keeps every hardware thread busy for `seconds` (nothing is measured).
void spin_up(double seconds);

/// Share of CPU time the hypervisor stole since construction, from the
/// steal column of /proc/stat (0 where it is unavailable).
class HostSteal {
 public:
  HostSteal() : start_(read()) {}
  double fraction() const;

 private:
  struct Ticks {
    double steal = 0.0;
    double total = 0.0;
  };
  static Ticks read();
  Ticks start_;
};

/// Prints the per-layer totals of `tracer` as a table (name, count, total,
/// self) to stdout.
void print_layer_table(const Tracer& tracer);

/// Writes the trace file when a path is set, reporting where it went.
void write_trace(const Tracer& tracer, const Options& opt);

/// The workloads (one source file each).
Report run_paper_cover(const Options& opt);
Report run_fig1_grid(const Options& opt);
Report run_serve_mix(const Options& opt);

}  // namespace perfbench
