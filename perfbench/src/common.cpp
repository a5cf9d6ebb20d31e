#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "graph/algorithms.hpp"
#include "stats.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-6s %s\n", ok ? "ok" : "FAILED", what.c_str());
  if (!ok) correct_ = false;
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : metrics_) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out << (first ? "" : ", ") << '"' << name << "\": " << buf;
    first = false;
  }
  out << "}}";
  return out.str();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + index;
  ewalk::splitmix64(state);
  return ewalk::splitmix64(state);
}

double peak_rss_mb() {
  return static_cast<double>(ewalk::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double median_setup_seconds(int reps, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    ewalk::WallTimer timer;
    setup();
    times.push_back(timer.seconds());
  }
  return median(times);
}

std::uint64_t csr_bytes(const Graph& g) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  return (n + 1) * 4 + 2 * m * 8 + m * 8;
}

std::uint64_t blue_partition_bytes(const Graph& g) {
  return 3 * 2 * static_cast<std::uint64_t>(g.num_edges()) * 4 +
         static_cast<std::uint64_t>(g.num_vertices()) * 4;
}

GraphLayerTimes measure_graph_layer(const Graph& g, int reps) {
  std::vector<ewalk::Endpoints> edges(g.num_edges());
  for (ewalk::EdgeId e = 0; e < g.num_edges(); ++e) edges[e] = g.endpoints(e);
  std::vector<double> build, connect;
  for (int i = 0; i < reps; ++i) {
    std::vector<ewalk::Endpoints> copy = edges;
    ewalk::WallTimer t;
    const Graph rebuilt = Graph::from_edges(g.num_vertices(), std::move(copy));
    build.push_back(t.seconds());
    ewalk::WallTimer c;
    ewalk::is_connected(rebuilt);
    connect.push_back(c.seconds());
  }
  return {median(build), median(connect)};
}

ExecutorCost measure_executor(std::uint32_t threads) {
  constexpr int kTasks = 4096;
  constexpr int kReps = 5;
  ExecutorCost cost;
  std::vector<double> flat, nested;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      ewalk::WallTimer t;
      ewalk::TaskScope scope(threads);
      for (int i = 0; i < kTasks; ++i) scope.spawn([] {});
      scope.wait();
      flat.push_back(t.seconds() * 1e6 / kTasks);
    }
    {
      ewalk::WallTimer t;
      ewalk::TaskScope scope(threads);
      constexpr int kOuter = 64;
      for (int i = 0; i < kOuter; ++i)
        scope.spawn([] {
          ewalk::TaskScope inner;
          for (int j = 0; j < kTasks / kOuter; ++j) inner.spawn([] {});
          inner.wait();
        });
      scope.wait();
      nested.push_back(t.seconds() * 1e6 / kTasks);
    }
  }
  cost.flat_us = median(flat);
  cost.nested_us = median(nested);
  return cost;
}

void StepTally::publish(Report& report) const {
  for (const auto& [process, st] : by_process)
    if (st.second > 0) report.set("engine.steps_per_s." + process, st.first / st.second);
}

void spin_up(double seconds) {
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < ewalk::Executor::hardware_threads(); ++i)
    threads.emplace_back([seconds] {
      ewalk::WallTimer t;
      volatile std::uint64_t x = 1;
      while (t.seconds() < seconds)
        for (int j = 0; j < 1000; ++j) x = x * 6364136223846793005ull + 1;
    });
  for (std::thread& t : threads) t.join();
}

HostSteal::Ticks HostSteal::read() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  Ticks t;
  double v = 0.0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double HostSteal::fraction() const {
  const Ticks now = read();
  const double total = now.total - start_.total;
  return total > 0 ? (now.steal - start_.steal) / total : 0.0;
}

void print_layer_table(const Tracer& tracer) {
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : tracer.totals())
    std::printf("%-28s %8llu %12.6f %12.6f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
}

void write_trace(const Tracer& tracer, const Options& opt) {
  if (opt.trace_out.empty()) return;
  if (tracer.write_chrome_json(opt.trace_out))
    std::printf("trace: wrote %s (Chrome trace-event JSON)\n", opt.trace_out.c_str());
  else
    std::printf("trace: could not write %s\n", opt.trace_out.c_str());
}

}  // namespace perfbench
