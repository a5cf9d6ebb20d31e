// perfbench: the repository benchmark's binary.
//
//   perfbench --workload paper-cover|fig1-grid|serve-mix --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Untraced (--trace 0) runs measure the end-to-end metrics; traced runs
// replay the workload with spans around every layer call and report the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics": {name: value}}; run.py
// attaches units and checks the names against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) try {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value != "0";
    else if (key == "--trace-out") opt.trace_out = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (argc % 2 != 1) throw std::invalid_argument("options come in --key value pairs");
  if (opt.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");

  // On the reference VM the host stacks idle vCPUs onto shared cores and
  // takes about a second to spread them once all of them get busy; without
  // this spin-up the first second of set-up runs several times slower.
  perfbench::spin_up(1.5);
  const perfbench::HostSteal steal;
  ewalk::WallTimer run_timer;

  perfbench::Report report;
  if (opt.workload == "paper-cover") report = perfbench::run_paper_cover(opt);
  else if (opt.workload == "fig1-grid") report = perfbench::run_fig1_grid(opt);
  else if (opt.workload == "serve-mix") report = perfbench::run_serve_mix(opt);
  else throw std::invalid_argument("unknown --workload '" + opt.workload +
                                   "' (paper-cover, fig1-grid, serve-mix)");
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the run (%.1f s)\n",
              100.0 * steal.fraction(), run_timer.seconds());
  std::printf("%s\n", report.json().c_str());
  return 0;
} catch (const std::exception& ex) {
  std::fprintf(stderr, "perfbench: %s\n", ex.what());
  return 2;
}
