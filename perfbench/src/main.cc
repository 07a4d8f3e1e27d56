// spot_perfbench: runs one benchmark workload and prints its result as
// one JSON line (the last line of stdout).
//
//   spot_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --serverd PATH
//
// --setup-only 1 times one cold set-up of the workload and prints its
// seconds; a run starts its binary this way to time set-up in fresh
// processes.
// --trace 0 reports the end-to-end metrics of the workload. --trace 1
// runs the same workload with a span around every call into the library,
// then the fixed-work per-layer pass, and reports the per-layer metrics;
// the spans are written to .bench_out/trace-<workload>-<seed>.json.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/log.h"
#include "support.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--serverd") {
      args->serverd = value;
    } else if (key == "--setup-only") {
      args->setup_only = value == "1";
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: spot_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serverd PATH\n");
    return 2;
  }
  spot::SetLogLevel(spot::LogLevel::kError);
  std::error_code ec;
  std::filesystem::create_directories(perfbench::kOutDir, ec);
  if (args.setup_only) {
    const double seconds = perfbench::TimeColdSetUp(args);
    if (seconds <= 0.0) return 1;
    std::printf("%.9f\n", seconds);
    return 0;
  }

  using Runner = perfbench::RunResult (*)(const perfbench::Args&,
                                          perfbench::Tracer*);
  Runner run = nullptr;
  if (args.workload == "detect_learning") run = perfbench::RunDetectLearning;
  if (args.workload == "session_churn") run = perfbench::RunSessionChurn;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  perfbench::Tracer tracer;
  perfbench::RunResult result = run(args, args.trace ? &tracer : nullptr);
  if (args.trace) {
    // The traced run reports per-layer metrics only; the workload's own
    // throughput under tracing is kept to show the tracing overhead.
    const double traced_pts = result.metrics.Get("pts_per_s");
    result.metrics = perfbench::Metrics();
    result.metrics.Set("trace.pts_per_s", traced_pts, "pts/s");
    perfbench::RunLayerLadder(args, &tracer, &result);
    const std::string path = std::string(perfbench::kOutDir) + "/trace-" +
                             args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  for (const std::string& failure : result.checks.failures()) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              result.metrics.Json().c_str());
  return 0;
}
