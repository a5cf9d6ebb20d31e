// paper-cover: the paper-scale cover run. Each unit is one
// `ewalk --graph regular-pairing --n 1000000 --r 4 --process eprocess
// --trials 3 --threads 3 --seed S` run, driven through execute_run with no
// store: a fresh n = 1e6 random 4-regular graph, connectivity, the probe
// construction, then 3 E-process trials to vertex cover on 3 threads.
// The last unit repeats the first unit's seed, so every run checks that one
// seed gives identical samples.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "common.hpp"
#include "engine/bundle.hpp"
#include "engine/registry.hpp"
#include "replay.hpp"
#include "serve/request.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

constexpr std::uint32_t kN = 1000000;
constexpr std::uint32_t kTrials = 3;
// Nominal cost of one unit on the reference box (4-vCPU Xeon VM):
// ~0.5 s generation and probe + ~1.5 s for 3 trials on 3 threads.
constexpr double kUnitSeconds = 2.0;
// E-process vertex cover on random 4-regular graphs: C_V/n measures 2.00
// here (n = 1e6, sd across trials ~0.1%); the check allows ±5%.
constexpr double kCoverLo = 1.9;
constexpr double kCoverHi = 2.1;
// Set-up's reduced cover run.
constexpr std::uint32_t kWarmN = 1u << 18;
// Bundle-width baseline: every interleaved walk gets this many steps.
constexpr std::uint64_t kBundleWalkSteps = 400000;

ewalk::RunRequest cover_request(std::uint64_t seed, std::uint32_t n,
                                std::uint32_t bundle = 1) {
  return ewalk::run_request_from_params(ewalk::ParamMap{
      {"graph", "regular-pairing"},
      {"process", "eprocess"},
      {"n", std::to_string(n)},
      {"r", "4"},
      {"trials", std::to_string(kTrials)},
      {"threads", std::to_string(kThreads)},
      {"seed", std::to_string(seed)},
      {"bundle", std::to_string(bundle)}});
}

std::vector<ewalk::RunRequest> unit_requests(const Options& opt, double seconds) {
  const std::size_t units =
      std::max<std::size_t>(2, static_cast<std::size_t>(std::lround(seconds / kUnitSeconds)));
  std::vector<ewalk::RunRequest> reqs;
  for (std::size_t u = 0; u + 1 < units; ++u)
    reqs.push_back(cover_request(derive_seed(opt.seed, u), kN));
  reqs.push_back(reqs.front());  // the repeat-seed determinism check
  return reqs;
}

struct UnitRun {
  std::vector<double> wall_s;
  std::vector<ewalk::RunResult> results;  // graphs dropped after each unit
  std::vector<bool> connected;
  std::uint64_t csr_bytes = 0;            // of the first unit's graph
  std::uint64_t blue_partition_bytes = 0;
  double total_s = 0.0;                   // summed unit walls
};

/// Runs one unit through execute_run and appends it to `run`.
void run_unit(const ewalk::RunRequest& req, UnitRun& run) {
  ewalk::WallTimer t;
  ewalk::RunResult r = ewalk::execute_run(req);
  const double wall = t.seconds();
  run.wall_s.push_back(wall);
  run.total_s += wall;
  run.connected.push_back(r.graph && r.graph->connected());
  if (r.graph && run.csr_bytes == 0) {
    run.csr_bytes = csr_bytes(r.graph->graph());
    run.blue_partition_bytes = blue_partition_bytes(r.graph->graph());
  }
  r.graph.reset();  // keep one paper-scale graph alive at a time
  run.results.push_back(std::move(r));
}

/// Output checks shared by both modes; counts clamped and failed trials.
void check_units(const std::vector<ewalk::RunRequest>& reqs,
                          const UnitRun& run, Report& report) {
  std::uint64_t failed = 0;
  bool all_ok = true, in_band = true;
  double lo = 1e300, hi = 0.0;
  for (std::size_t u = 0; u < run.results.size(); ++u) {
    const ewalk::RunResult& r = run.results[u];
    if (!r.ok || !run.connected[u]) {
      all_ok = false;
      failed += reqs[u].trials;
      continue;
    }
    failed += r.unfinished;
    const double cv_n = r.stats.mean / kN;
    lo = std::min(lo, cv_n);
    hi = std::max(hi, cv_n);
    in_band = in_band && cv_n >= kCoverLo && cv_n <= kCoverHi;
  }
  report.check(all_ok, "every execute_run ok on a connected graph");
  report.check(failed == 0, "no trial clamped to its step budget");
  char what[160];
  std::snprintf(what, sizeof what, "C_V/n in [%.2f, %.2f] for r=4 (measured %.4f..%.4f)",
                kCoverLo, kCoverHi, lo, hi);
  report.check(in_band, what);
  report.check(run.results.front().samples == run.results.back().samples &&
                   run.results.front().step_samples == run.results.back().step_samples,
               "repeated seed gives identical samples");
  report.count(reqs.size() * kTrials, failed);
}

double bundle_rate(const ewalk::Graph& g, std::uint32_t width, std::uint64_t seed) {
  std::vector<ewalk::Rng> streams = ewalk::derive_streams(seed, width);
  std::vector<std::unique_ptr<ewalk::WalkProcess>> walks;
  std::vector<ewalk::BundleTrial> bundle(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    walks.push_back(ewalk::ProcessRegistry::instance().create("eprocess", g, {}, streams[i]));
    bundle[i] = ewalk::BundleTrial{walks.back().get(), &streams[i], kBundleWalkSteps,
                                   kBundleWalkSteps};
  }
  ewalk::WallTimer timer;
  ewalk::run_trial_bundle(std::span<const ewalk::BundleTrial>(bundle),
                          [](const ewalk::WalkProcess&) { return false; });
  const double secs = timer.seconds();
  double steps = 0.0;
  for (const auto& w : walks) steps += static_cast<double>(w->steps());
  return steps / secs;
}

void print_sizes(std::uint64_t csr, std::uint64_t blue) {
  const double mib = 1024.0 * 1024.0;
  std::printf(
      "data: CSR %.1f MiB + BluePartition %.1f MiB per trial (x%u trials) = %.1f MiB; "
      "L2 2 MiB per core, L3 300 MiB as the VM reports it: the working set misses "
      "L2 but fits in L3, so the step core does not reach DRAM here\n",
      static_cast<double>(csr) / mib, static_cast<double>(blue) / mib, kTrials,
      static_cast<double>(csr + kTrials * blue) / mib);
}

Report untraced(const Options& opt) {
  Report report;
  const std::vector<ewalk::RunRequest> reqs = unit_requests(opt, opt.seconds);
  // Set-up: starting the Executor's workers and the registries, and one
  // reduced cover run that warms the allocator — what a process pays
  // before its first paper-scale run.
  const double setup_s = median_setup_seconds(5, [&] {
    const ewalk::RunResult warm = ewalk::execute_run(cover_request(opt.seed, kWarmN));
    if (!warm.ok) std::printf("warm-up failed: %s\n", warm.error.c_str());
  });

  UnitRun run;
  for (const ewalk::RunRequest& req : reqs) run_unit(req, run);
  check_units(reqs, run, report);

  // Co-tenants' memory traffic drifts unit times on the reference VM by up
  // to ±15% over tens of seconds, while a run's fastest unit repeats within
  // ~5% across runs. So the throughput figures come from the fastest unit
  // (wall_s is units x its wall); the latency percentiles keep them all.
  std::vector<double> rates;
  for (std::size_t u = 0; u < reqs.size(); ++u)
    rates.push_back(run.results[u].total_steps / run.wall_s[u]);
  const double fastest = *std::min_element(run.wall_s.begin(), run.wall_s.end());
  const TailPercentile tail = tail_percentile(run.wall_s);
  std::printf("paper-cover: %zu units of execute_run (n=%u r=4 eprocess, %u trials, "
              "%u threads), %.3f s in all\n",
              reqs.size(), kN, kTrials, kThreads, run.total_s);
  for (std::size_t u = 0; u < reqs.size(); ++u)
    std::printf("  unit %zu seed %llu: %.3f s, C_V/n %.4f, %.0f steps\n", u,
                static_cast<unsigned long long>(reqs[u].seed), run.wall_s[u],
                run.results[u].stats.mean / kN, run.results[u].total_steps);
  std::printf("latency tail: p%g over %llu units (the reporting rule needs 10 samples "
              "beyond a percentile; below that it reports the maximum)\n",
              tail.p, static_cast<unsigned long long>(tail.count));
  print_sizes(run.csr_bytes, run.blue_partition_bytes);
  report.set("setup_s", setup_s);
  report.set("wall_s", fastest * static_cast<double>(reqs.size()));
  report.set("steps_per_s", *std::max_element(rates.begin(), rates.end()));
  report.set("latency_p50_ms", median(run.wall_s) * 1e3);
  report.set("latency_p99_ms", tail.value * 1e3);
  report.set("max_rate_rps", 1.0 / fastest);
  report.set("peak_rss_mb", peak_rss_mb());
  std::printf("failed_frac %.6f (%llu of %llu trials)\n", report.failed_frac(),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  return report;
}

Report traced(const Options& opt) {
  Report report;
  // Half the run replays untraced (the reference), half traced.
  const std::vector<ewalk::RunRequest> reqs = unit_requests(opt, opt.seconds / 2);
  ewalk::execute_run(cover_request(opt.seed, kWarmN));  // warm-up, as in set-up

  // Each unit runs untraced (the reference) and as a traced replay, in
  // alternating order so drift on a shared box cancels out of the overhead.
  Tracer tracer;
  ReplayStats stats;
  UnitRun reference;
  std::vector<double> unit_s;
  bool same = true;
  std::shared_ptr<const ewalk::CachedGraph> last_graph;
  for (std::size_t u = 0; u < reqs.size(); ++u) {
    if (u % 2 == 0) run_unit(reqs[u], reference);
    std::int64_t id;
    ewalk::RunResult r;
    {
      Scoped unit(&tracer, "unit.execute_run", -1, static_cast<std::int64_t>(u));
      id = unit.id();
      r = replay_execute_run(reqs[u], nullptr, tracer, id, static_cast<std::int64_t>(u),
                             stats);
    }
    unit_s.push_back(tracer.duration(id));
    last_graph = std::move(r.graph);
    if (u % 2 == 1) run_unit(reqs[u], reference);
    same = same && r.ok && r.samples == reference.results[u].samples &&
           r.step_samples == reference.results[u].step_samples;
  }
  check_units(reqs, reference, report);
  report.check(same, "traced replay reproduces execute_run's samples");
  const double traced_total = sum(unit_s);
  const double untraced_total = reference.total_s;

  const ewalk::Graph& g = last_graph->graph();
  const GraphLayerTimes graph_layer = measure_graph_layer(g, 3);
  const double w1 = bundle_rate(g, 1, derive_seed(opt.seed, 101));
  const double w4 = bundle_rate(g, 4, derive_seed(opt.seed, 104));
  const double w16 = bundle_rate(g, 16, derive_seed(opt.seed, 116));
  last_graph.reset();

  // Known gap: execute_run ignores RunRequest::bundle_width. The same
  // request at bundle 1 and 4, back to back.
  UnitRun bundles;
  run_unit(cover_request(reqs[0].seed, kN, 1), bundles);
  run_unit(cover_request(reqs[0].seed, kN, 4), bundles);
  const double bundle_ratio = bundles.wall_s[1] / bundles.wall_s[0];
  report.check(bundles.results[1].ok &&
                   bundles.results[1].samples == bundles.results[0].samples,
               "bundle=4 request gives the bundle=1 samples");
  const ExecutorCost exec = measure_executor(kThreads);
  const double create_sum = sum(stats.create_s), walk_sum = sum(stats.walk_s);
  const double trials_sum = sum(stats.run_trials_s);
  report.set("graph.generate_s", mean(stats.generate_s));
  report.set("graph.connectivity_s", mean(stats.connectivity_s));
  report.set("graph.csr_build_s", graph_layer.csr_build_s);
  report.set("graph.bytes", static_cast<double>(reference.csr_bytes));
  report.set("engine.create_s", mean(stats.create_s));
  report.set("engine.walk_s", mean(stats.walk_s));
  report.set("engine.create_frac", create_sum / (create_sum + walk_sum));
  report.set("engine.steps", stats.total_steps);
  stats.steps.publish(report);
  report.set("engine.bundle.w1_steps_per_s", w1);
  report.set("engine.bundle.w4_steps_per_s", w4);
  report.set("engine.bundle.w16_steps_per_s", w16);
  report.set("covertime.run_trials_s", mean(stats.run_trials_s));
  report.set("covertime.parallel_eff", (create_sum + walk_sum) / (kThreads * trials_sum));
  report.set("covertime.bundle4_wall_ratio", bundle_ratio);
  report.set("serve.request.probe_s", mean(stats.probe_s));
  report.set("util.executor.spawn_wait_us", exec.flat_us);
  report.set("util.executor.nested_spawn_wait_us", exec.nested_us);
  report.set("failed_frac", report.failed_frac());
  report.set("trace.overhead_frac", traced_total / untraced_total - 1.0);

  print_layer_table(tracer);
  const auto totals = tracer.totals();
  const auto self = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const double on_path = total("graph.generate") + total("graph.connectivity") +
                         total("serve.request.probe") + total("covertime.run_trials");
  // The layers are reconciled against the traced units' own wall; the
  // untraced comparison is the trace overhead plus run-to-run drift.
  std::printf("reconciliation (paper-cover, %zu units): traced wall %.3f s, untraced %.3f s "
              "(traced %+.1f%%: span overhead plus drift between units)\n",
              reqs.size(), traced_total, untraced_total,
              100.0 * (traced_total / untraced_total - 1.0));
  const auto row = [&](const char* name, double s, const char* note) {
    std::printf("  %-26s %9.3f s %6.1f%% of traced wall  %s\n", name, s,
                100.0 * s / traced_total, note);
  };
  row("graph.generate", total("graph.generate"), "generation incl. union-find + CSR build");
  row("graph.connectivity", total("graph.connectivity"), "execute_run's BFS is_connected");
  row("serve.request.probe", total("serve.request.probe"),
      "probe construction before the trials (a full BluePartition)");
  row("covertime.run_trials", total("covertime.run_trials"), "parallel trial phase (wall):");
  std::printf("  %-26s %9.3f task-s (engine.create %.3f, engine.walk %.3f, "
              "run_trials self %.3f), parallel_eff %.3f on %u threads\n",
              "", create_sum + walk_sum, create_sum, walk_sum, self("covertime.run_trials"),
              (create_sum + walk_sum) / (kThreads * trials_sum), kThreads);
  row("unexplained gap", traced_total - on_path,
      "between the layer calls: registry lookups, summaries, result assembly");
  std::printf("known gaps: E-process set-up %.1f%% of create+walk at n=1e6; bundle "
              "w16/w4 = %.3f; execute_run bundle=4 wall / bundle=1 wall = %.3f "
              "(about 1 while execute_run ignores the field)\n",
              100.0 * create_sum / (create_sum + walk_sum), w16 / w4, bundle_ratio);
  print_sizes(reference.csr_bytes, reference.blue_partition_bytes);
  write_trace(tracer, opt);
  return report;
}

}  // namespace

Report run_paper_cover(const Options& opt) {
  return opt.trace ? traced(opt) : untraced(opt);
}

}  // namespace perfbench
