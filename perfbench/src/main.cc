// perfbench: the repository benchmark. Usually started through run.py,
// which builds it first:
//
//   perfbench --workload <xmark-paper|update-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//             [--source <id>]
//
// Prints one detail line (environment stamp, ratio bases, sample counts,
// facts) and, last, the result line {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics and writes the run's spans as Chrome trace JSON.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Args;

bool ParseArgs(int argc, char** argv, Args* a, std::string* trace_file,
               std::string* source) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--trace-file") {
      *trace_file = val;
    } else if (key == "--source") {
      *source = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0;
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

bool Optimized() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::vector<std::pair<std::string, std::string>> EnvStamp(
    const Args& a, const std::string& source) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int affinity = sched_getaffinity(0, sizeof(set), &set) == 0
                     ? CPU_COUNT(&set)
                     : -1;
  return {
      {"workload", a.workload},
      {"seed", std::to_string(a.seed)},
      {"seconds", std::to_string(a.seconds)},
      {"trace", a.trace ? "1" : "0"},
      {"source", source.empty() ? "unknown" : source},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"optimized", Optimized() ? "yes" : "no"},
      {"fgpm_obs", fgpm::obs::kCompiledIn ? "ON" : "OFF"},
      {"sanitizer", Sanitizer()},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"affinity_cores", std::to_string(affinity)},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string trace_file, source;
  if (!ParseArgs(argc, argv, &args, &trace_file, &source)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-file <path>] [--source <id>]\n");
    return 2;
  }
  // Timings from sanitizer or unoptimized builds are not comparable.
  if (std::strcmp(Sanitizer(), "none") != 0 || !Optimized()) {
    std::fprintf(stderr, "perfbench: refusing a %s build (sanitizer %s)\n",
                 PERFBENCH_BUILD_TYPE, Sanitizer());
    return 2;
  }

  perfbench::Report report;
  fgpm::QueryTrace spans;
  fgpm::QueryTrace* span_log = args.trace ? &spans : nullptr;
  if (args.workload == "xmark-paper") {
    perfbench::RunXmarkPaper(args, &report, span_log);
  } else if (args.workload == "update-mix") {
    perfbench::RunUpdateMix(args, &report, span_log);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    perfbench::AddSelfTimes(spans, &report);
    perfbench::FillUnexercised(&report);
    if (!trace_file.empty()) {
      std::ofstream out(trace_file);
      out << spans.ToChromeJson();
      if (!out) report.Invalidate("could not write " + trace_file);
    }
  }

  for (const std::string& problem : report.Check()) {
    report.Invalidate(problem);
  }
  std::printf("%s\n", report.DetailLine(EnvStamp(args, source)).c_str());
  std::printf("%s\n", report.ResultLine().c_str());
  std::fflush(stdout);
  return 0;  // the result line carries the verdict
}
