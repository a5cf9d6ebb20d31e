// fig1-grid: the paper's Figure-1 grid through run_sweep — the uniform
// E-process on random d-regular graphs, d = 3..7, n = 1e5..5e5 (the paper's
// range), a fresh graph per trial, 3 threads. Each point task fans its unit
// out as a nested TaskScope task that generates the graph and walks it to
// vertex cover. A run is several one-trial sweeps of the whole grid, each
// from its own master seed; the checks pool their trials per point.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "engine/adapters.hpp"
#include "graph/generators.hpp"
#include "stats.hpp"
#include "sweep/sweep.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "walks/rules.hpp"

namespace perfbench {

namespace {

const std::vector<std::uint32_t> kDegrees = {3, 4, 5, 6, 7};
const std::vector<std::uint32_t> kSizes = {100000, 200000, 300000, 400000, 500000};
// Nominal wall time of one one-trial sweep of the grid on 3 threads here.
constexpr double kSweepSeconds = 5.0;
// The paper reads c in C_V ~ c n ln n off Figure 1 for the odd degrees.
// The check fits C_V/n = c ln n through the origin (the paper's reading)
// and accepts c within ±25% of the paper's value.
double paper_c(std::uint32_t d) { return d == 3 ? 0.93 : d == 5 ? 0.41 : 0.38; }
constexpr double kCBand = 0.25;
// Even degrees: C_V/n is flat in n; the check accepts a max-min spread of
// the per-point means up to 5% of their mean (measured here: < 1.5%).
constexpr double kFlatBand = 0.05;
// Set-up's reduced grid size.
constexpr std::uint32_t kWarmN = 100000;

/// Span hooks for the traced sweep; null in the untraced run.
struct Hooks {
  Tracer* tracer = nullptr;
  std::int64_t parent = -1;
};

std::vector<ewalk::SweepPoint> grid(std::uint32_t small_n, const Hooks& hooks) {
  std::vector<ewalk::SweepPoint> points;
  for (const std::uint32_t d : kDegrees) {
    for (const std::uint32_t size : kSizes) {
      const std::uint32_t n = small_n ? small_n : size;
      ewalk::SweepPoint p;
      char label[32];
      std::snprintf(label, sizeof label, "d%u-n%u", d, n);
      p.label = label;
      p.params = {{"d", static_cast<double>(d)}, {"n", static_cast<double>(n)}};
      p.graph = [n, d, hooks](ewalk::Rng& rng) {
        Scoped span(hooks.tracer, "graph.generate", hooks.parent);
        return ewalk::random_regular_pairing_connected(n, d, rng);
      };
      p.series.push_back(ewalk::SweepSeriesSpec{
          "eprocess",
          [hooks](const ewalk::Graph& g, ewalk::Rng&) -> std::unique_ptr<ewalk::WalkProcess> {
            Scoped span(hooks.tracer, "engine.create", hooks.parent);
            return std::make_unique<ewalk::EProcessHandle>(
                g, /*start=*/0, std::make_unique<ewalk::UniformRule>());
          },
          ewalk::CoverTarget::kVertices});
      points.push_back(std::move(p));
      if (small_n) break;  // warm-up grid: one size per degree
    }
  }
  return points;
}

ewalk::SweepConfig config(std::uint64_t seed, std::uint32_t trials) {
  ewalk::SweepConfig sc;
  sc.trials = trials;
  sc.threads = kThreads;
  sc.master_seed = seed;
  return sc;
}

std::size_t sweeps_for(double seconds) {
  return static_cast<std::size_t>(std::clamp<long>(std::lround(seconds / kSweepSeconds), 1, 20));
}

double cover_steps(const ewalk::SweepResult& r) {
  double s = 0.0;
  for (const auto& p : r.points)
    for (const auto& series : p.series)
      s += sum(series.samples);
  return s;
}

/// Output checks over the pooled trials of `runs`: coverage, even-degree
/// flatness, odd-degree c.
void check_grid(const std::vector<ewalk::SweepResult>& runs, Report& report) {
  std::uint64_t trials = 0, uncovered = 0;
  std::vector<std::vector<double>> samples(kDegrees.size() * kSizes.size());
  for (const ewalk::SweepResult& r : runs)
    for (std::size_t p = 0; p < r.points.size(); ++p)
      for (const auto& s : r.points[p].series) {
        trials += s.trials_used;
        uncovered += s.uncovered_trials;
        samples[p].insert(samples[p].end(), s.samples.begin(), s.samples.end());
      }
  report.count(trials, uncovered);
  report.check(uncovered == 0, "every grid trial covered within its step budget");

  std::size_t idx = 0;
  std::printf("%3s %9s %14s %10s  (%zu trials per point)\n", "d", "n", "C_V mean", "C_V/n",
              samples.front().size());
  for (const std::uint32_t d : kDegrees) {
    std::vector<double> ns, cover, ratio;
    for (const std::uint32_t n : kSizes) {
      const std::vector<double>& v = samples[idx++];
      const double cv = mean(v);
      ns.push_back(n);
      cover.push_back(cv);
      ratio.push_back(cv / n);
      std::printf("%3u %9u %14.0f %10.4f\n", d, n, cv, cv / n);
    }
    const ewalk::LinearFit fit = ewalk::fit_c_nlogn(ns, cover);
    char what[200];
    if (d % 2 == 0) {
      const auto [lo, hi] = std::minmax_element(ratio.begin(), ratio.end());
      const double avg = mean(ratio);
      const double spread = (*hi - *lo) / avg;
      std::snprintf(what, sizeof what,
                    "d=%u: C_V/n flat in n (spread %.4f of mean %.3f <= %.2f; "
                    "free fit c = %.3f)",
                    d, spread, avg, kFlatBand, fit.slope);
      report.check(spread <= kFlatBand, what);
    } else {
      double xy = 0.0, xx = 0.0;
      for (std::size_t i = 0; i < ns.size(); ++i) {
        const double x = std::log(ns[i]);
        xy += x * ratio[i];
        xx += x * x;
      }
      const double c = xy / xx;
      std::snprintf(what, sizeof what,
                    "d=%u: C_V/n = c ln n with c = %.3f within %.0f%% of the paper's "
                    "%.2f (free fit c = %.3f, b = %.2f)",
                    d, c, 100 * kCBand, paper_c(d), fit.slope, fit.intercept);
      report.check(std::abs(c - paper_c(d)) <= kCBand * paper_c(d), what);
    }
  }
}

ewalk::SweepResult timed_sweep(const std::vector<ewalk::SweepPoint>& points,
                               const ewalk::SweepConfig& sc, double* wall_s) {
  ewalk::WallTimer t;
  ewalk::SweepResult r = ewalk::run_sweep("fig1-grid", points, sc);
  *wall_s = t.seconds();
  return r;
}

void warm_up(std::uint64_t seed) {
  ewalk::run_sweep("fig1-grid-warmup", grid(kWarmN, {}), config(seed, 1));
}

Report untraced(const Options& opt) {
  Report report;
  const std::size_t sweeps = sweeps_for(opt.seconds);
  // Set-up: building the grid and a reduced sweep (n = 1e5, one trial per
  // degree) that starts the Executor and warms the allocator.
  std::vector<ewalk::SweepPoint> points;
  const double setup_s = median_setup_seconds(5, [&] {
    points = grid(0, {});
    warm_up(opt.seed);
  });
  std::vector<ewalk::SweepResult> runs;
  std::vector<double> walls, rates;
  for (std::size_t k = 0; k < sweeps; ++k) {
    double wall = 0.0;
    runs.push_back(timed_sweep(points, config(derive_seed(opt.seed, k), 1), &wall));
    const ewalk::SweepResult& r = runs.back();
    walls.push_back(wall);
    rates.push_back(cover_steps(r) / wall);
    std::printf("sweep %zu: %.3f s wall, generation %.2f task-s, walking %.2f task-s, "
                "slowest unit %.3f s (%.0f%% of wall)\n",
                k, wall, r.gen_seconds, r.walk_seconds, r.unit_seconds_max,
                100.0 * r.unit_seconds_max / wall);
  }
  std::printf("fig1-grid: %zu one-trial sweeps of %zu points on %u threads\n", sweeps,
              points.size(), kThreads);
  check_grid(runs, report);
  // As in paper-cover, co-tenants drift sweep times over tens of seconds,
  // so the throughput figures come from the fastest sweep (wall_s is
  // sweeps x its wall); the latency percentiles keep them all.
  const double fastest = *std::min_element(walls.begin(), walls.end());
  const TailPercentile tail = tail_percentile(walls);
  std::printf("latency tail: p%g over %llu sweeps (below 20 samples the rule reports the "
              "maximum)\n",
              tail.p, static_cast<unsigned long long>(tail.count));
  report.set("setup_s", setup_s);
  report.set("wall_s", fastest * static_cast<double>(sweeps));
  report.set("steps_per_s", *std::max_element(rates.begin(), rates.end()));
  report.set("latency_p50_ms", median(walls) * 1e3);
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
  const std::size_t sweeps = sweeps_for(opt.seconds / 2);
  warm_up(opt.seed);
  // One untimed full-size sweep first: the process's first paper-range
  // sweep pays page faults the later ones do not, which would otherwise
  // land on one side of the traced/untraced comparison.
  double ignored = 0.0;
  timed_sweep(grid(0, {}), config(derive_seed(opt.seed, 1000), 1), &ignored);
  // Each one-trial sweep runs untraced (the reference) and traced, in
  // alternating order so drift on a shared box cancels out of the overhead.
  Tracer tracer;
  std::vector<ewalk::SweepResult> refs, traced_runs;
  double untraced_wall = 0.0, traced_wall = 0.0;
  bool same = true;
  for (std::size_t k = 0; k < sweeps; ++k) {
    const ewalk::SweepConfig sc = config(derive_seed(opt.seed, k), 1);
    const auto plain = [&] {
      double wall = 0.0;
      refs.push_back(timed_sweep(grid(0, {}), sc, &wall));
      untraced_wall += wall;
    };
    if (k % 2 == 0) plain();
    {
      Scoped root(&tracer, "sweep.run_sweep", -1, static_cast<std::int64_t>(k));
      double wall = 0.0;
      traced_runs.push_back(timed_sweep(grid(0, {&tracer, root.id()}), sc, &wall));
      traced_wall += wall;
    }
    if (k % 2 == 1) plain();
    for (std::size_t p = 0; p < refs.back().points.size(); ++p)
      same = same && traced_runs.back().points[p].series.front().samples ==
                         refs.back().points[p].series.front().samples;
  }
  check_grid(refs, report);
  report.check(same, "traced sweeps reproduce the untraced samples");

  // The graph layer's parts, re-measured on the grid's largest graph.
  ewalk::Rng rng = ewalk::sweep_stream(opt.seed, kDegrees.size() * kSizes.size() - 1, 0, 0);
  const ewalk::Graph largest =
      ewalk::random_regular_pairing_connected(kSizes.back(), kDegrees.back(), rng);
  const GraphLayerTimes graph_layer = measure_graph_layer(largest, 3);
  const ExecutorCost exec = measure_executor(kThreads);

  const auto totals = tracer.totals();
  const auto layer = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  const LayerTotals gen = layer("graph.generate");
  const LayerTotals create = layer("engine.create");
  double gen_task = 0.0, walk_task = 0.0, unit_max = 0.0, steps = 0.0;
  std::uint64_t units = 0;
  for (const ewalk::SweepResult& r : traced_runs) {
    gen_task += r.gen_seconds;
    walk_task += r.walk_seconds;
    unit_max = std::max(unit_max, r.unit_seconds_max);
    steps += cover_steps(r);
    for (const auto& p : r.points) units += p.series.front().trials_used;
  }
  const double busy = (gen_task + create.total_s + walk_task) / (kThreads * traced_wall);

  report.set("graph.generate_s", gen.count ? gen.total_s / gen.count : 0.0);
  report.set("graph.csr_build_s", graph_layer.csr_build_s);
  report.set("graph.connectivity_s", graph_layer.connectivity_s);
  report.set("graph.bytes", static_cast<double>(csr_bytes(largest)));
  report.set("engine.create_s", create.count ? create.total_s / create.count : 0.0);
  report.set("engine.walk_s", walk_task / static_cast<double>(units));
  report.set("engine.create_frac", create.total_s / (create.total_s + walk_task));
  report.set("engine.steps", steps);
  report.set("engine.steps_per_s.eprocess", steps / walk_task);
  report.set("sweep.gen_task_s", gen_task);
  report.set("sweep.walk_task_s", walk_task);
  report.set("sweep.unit_max_s", unit_max);
  report.set("sweep.busy_frac", busy);
  report.set("sweep.factory_create_s", create.total_s);
  report.set("util.executor.spawn_wait_us", exec.flat_us);
  report.set("util.executor.nested_spawn_wait_us", exec.nested_us);
  report.set("failed_frac", report.failed_frac());
  report.set("trace.overhead_frac", traced_wall / untraced_wall - 1.0);

  print_layer_table(tracer);
  // The layers are reconciled against the traced sweeps' own thread-time;
  // the untraced comparison is the trace overhead plus run-to-run drift.
  const double capacity = kThreads * traced_wall;
  std::printf("reconciliation (fig1-grid, %zu one-trial sweeps): traced wall %.3f s x %u "
              "threads = %.3f thread-s; untraced wall %.3f s (traced %+.1f%%: span "
              "overhead plus drift between runs)\n",
              sweeps, traced_wall, kThreads, capacity, untraced_wall,
              100.0 * (traced_wall / untraced_wall - 1.0));
  const auto row = [&](const char* name, double s, const char* note) {
    std::printf("  %-22s %9.3f thread-s %6.1f%%  %s\n", name, s, 100.0 * s / capacity, note);
  };
  row("graph.generate", gen_task, "graph factory (sweep gen_seconds)");
  row("engine.create", create.total_s, "E-process construction (process factory)");
  row("engine.walk", walk_task, "walking to cover (sweep walk_seconds)");
  row("unexplained gap", capacity - gen_task - create.total_s - walk_task,
      "idle threads: the straggler tail and scheduling");
  std::printf("slowest unit %.3f s; busy fraction %.3f\n", unit_max, busy);
  write_trace(tracer, opt);
  return report;
}

}  // namespace

Report run_fig1_grid(const Options& opt) {
  return opt.trace ? traced(opt) : untraced(opt);
}

}  // namespace perfbench
