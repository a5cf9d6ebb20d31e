#include "sweep/report.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace ewalk {

std::string write_sweep_json(const SweepResult& result,
                             const std::string& directory) {
  JsonWriter w;
  w.open('{').field("sweep", result.name).field("version", 3u)
      .field("seed", result.master_seed).field("trials", result.trials)
      .field("max_trials", result.max_trials)
      .field("ci_rel_target", result.ci_rel_target)
      .field("threads", result.threads)
      .field("reuse_graph", result.reuse_graph).field("pin", result.pinned)
      .field("gen_seconds", result.gen_seconds)
      .field("walk_seconds", result.walk_seconds)
      .field("wall_seconds", result.wall_seconds)
      .field("unit_count", result.unit_count)
      .field("unit_seconds_min", result.unit_seconds_min)
      .field("unit_seconds_max", result.unit_seconds_max)
      .field("timeline_bucket_seconds", result.timeline_bucket_seconds)
      .key("thread_timeline").open('[');
  for (const SweepThreadTimeline& timeline : result.thread_timeline)
    w.open('{').field("thread", timeline.thread)
        .field("busy_seconds", timeline.busy_seconds)
        .field("units", timeline.units).close('}');
  w.close(']').key("points").open('[');
  for (const SweepPointResult& point : result.points) {
    w.open('{').field("label", point.label).key("params").open('{');
    for (const SweepParam& param : point.params)
      w.field(param.name, param.value);
    w.close('}').field("gen_seconds", point.gen_seconds)
        .key("series").open('[');
    for (const SweepSeriesResult& sr : point.series)
      w.open('{').field("name", sr.name).field("mean", sr.stats.mean)
          .field("ci95", sr.stats.ci95_halfwidth())
          .field("median", sr.stats.median).field("min", sr.stats.min)
          .field("max", sr.stats.max)
          .field("uncovered_trials", sr.uncovered_trials)
          .field("trials_used", sr.trials_used)
          .field("ci_rel_width", sr.ci_rel_width)
          .field("walk_seconds", sr.walk_seconds)
          .field("samples", sr.samples).close('}');
    w.close(']').close('}');
  }
  w.close(']').close('}');

  std::filesystem::create_directories(directory);
  const std::string path = directory + "/SWEEP_" + result.name + ".json";
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_sweep_json: cannot open " + path);
  out << w.take() << '\n';
  return path;
}

std::string write_sweep_csv(const SweepResult& result,
                            const std::string& directory) {
  std::filesystem::create_directories(directory);
  const std::string path = directory + "/SWEEP_" + result.name + ".csv";
  std::vector<std::string> header{"label"};
  if (!result.points.empty())
    for (const SweepParam& param : result.points.front().params)
      header.push_back(param.name);
  for (const char* col :
       {"series", "mean", "ci95", "median", "min", "max", "uncovered_trials",
        "trials_used", "ci_rel_width", "walk_seconds", "gen_seconds"})
    header.push_back(col);

  CsvWriter csv(path, std::move(header));
  for (const SweepPointResult& point : result.points) {
    for (const SweepSeriesResult& sr : point.series) {
      std::vector<std::string> row{point.label};
      for (const SweepParam& param : point.params)
        row.push_back(format_json_double(param.value));
      row.push_back(sr.name);
      for (const double v : {sr.stats.mean, sr.stats.ci95_halfwidth(),
                             sr.stats.median, sr.stats.min, sr.stats.max,
                             static_cast<double>(sr.uncovered_trials),
                             static_cast<double>(sr.trials_used),
                             sr.ci_rel_width, sr.walk_seconds,
                             point.gen_seconds})
        row.push_back(format_json_double(v));
      csv.row(row);
    }
  }
  return path;
}

void print_sweep_timing_split(const SweepResult& result) {
  const double accounted = result.gen_seconds + result.walk_seconds;
  std::printf(
      "timing split: generation %.2fs (%.0f%%) vs walking %.2fs (%.0f%%) "
      "task-seconds; %.2fs wall\n",
      result.gen_seconds,
      accounted > 0 ? 100.0 * result.gen_seconds / accounted : 0.0,
      result.walk_seconds,
      accounted > 0 ? 100.0 * result.walk_seconds / accounted : 0.0,
      result.wall_seconds);
  // Straggler diagnostic: a slowest unit well below the wall clock means
  // trial-level parallelism kept the sweep from being bounded by its
  // biggest (point, trial) unit.
  std::printf(
      "unit spread: %u units, fastest %.3fs, slowest %.3fs (%.0f%% of wall)"
      "; %zu thread%s active%s\n",
      result.unit_count, result.unit_seconds_min, result.unit_seconds_max,
      result.wall_seconds > 0
          ? 100.0 * result.unit_seconds_max / result.wall_seconds
          : 0.0,
      result.thread_timeline.size(),
      result.thread_timeline.size() == 1 ? "" : "s",
      result.pinned ? " (pinned)" : "");
}

void print_sweep_table(const SweepResult& result) {
  std::printf("%-18s %-16s %14s %12s %12s %6s %6s\n", "point", "series",
              "mean", "+/-95%", "mean/n", "trials", "unfin");
  for (const SweepPointResult& point : result.points) {
    double n = 0.0;
    for (const SweepParam& param : point.params)
      if (param.name == "n") n = param.value;
    for (const SweepSeriesResult& sr : point.series) {
      if (n > 0)
        std::printf("%-18s %-16s %14.0f %12.0f %12.3f %6u %6u\n",
                    point.label.c_str(), sr.name.c_str(), sr.stats.mean,
                    sr.stats.ci95_halfwidth(), sr.stats.mean / n,
                    sr.trials_used, sr.uncovered_trials);
      else
        std::printf("%-18s %-16s %14.0f %12.0f %12s %6u %6u\n",
                    point.label.c_str(), sr.name.c_str(), sr.stats.mean,
                    sr.stats.ci95_halfwidth(), "-", sr.trials_used,
                    sr.uncovered_trials);
    }
  }
  print_sweep_timing_split(result);
}

}  // namespace ewalk
