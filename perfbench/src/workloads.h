// The benchmark's workloads. Each takes its inputs from `seed`, runs the
// program under test with default options, checks rows against an
// oracle before timing, and reports either the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "util.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// `spans` is non-null in the traced run only.
void RunXmarkPaper(const Args& args, Report* report, fgpm::QueryTrace* spans);
void RunUpdateMix(const Args& args, Report* report, fgpm::QueryTrace* spans);

// setup_s is the median of several set-ups in one run: at least 3, and
// more (up to 15) while they total under 4 s, so cheap set-ups are
// sampled as steadily as expensive ones.
inline bool MoreSetupReps(const std::vector<double>& setup_s) {
  double total = 0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (setup_s.size() < 15 && total < 4.0);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
