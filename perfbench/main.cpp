// perfbench: runs one workload of the tdat benchmark and prints, as its last
// line, one JSON object with the run's operation counts, its end-to-end
// metrics, its per-layer metrics and the trace normalizer. run.py builds
// this binary and turns that line into the benchmark's result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "agg/sink.hpp"
#include "bench.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table-transfer|live-tail|"
               "collector-week --seed N --seconds S --trace 0|1 --workdir "
               "DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.process_start = Clock::now();
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      auto w = parse_workload(value);
      if (!w.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", w.error().c_str());
        return 2;
      }
      cfg.workload = w.value();
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--workdir") {
      cfg.workdir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || cfg.workdir.empty() || !(cfg.seconds > 0)) {
    return usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.workdir, ec);
  tdat::agg::register_aggregate_sink();

  RunResult res;
  switch (cfg.workload) {
    case Workload::kTableTransfer: res = run_table_transfer(cfg); break;
    case Workload::kLiveTail: res = run_live_tail(cfg); break;
    case Workload::kCollectorWeek: res = run_collector_week(cfg); break;
  }
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "perfbench: %s\n", f.c_str());
  }
  if (res.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation ran\n");
    return 1;
  }
  std::printf("%s\n", result_line(res).c_str());
  return 0;
}
