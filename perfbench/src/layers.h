// Per-layer probes: the traced run times calls into each layer's public
// functions from here (no timers inside the program) and reads the
// counters the program already returns.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph_matcher.h"
#include "graph/graph.h"
#include "query/pattern.h"
#include "report.h"
#include "util.h"

namespace perfbench {

struct NamedPattern {
  std::string name;
  std::string text;
  fgpm::Pattern pattern;
};

// Named, parsed copies of the paper's XMark suites: P1-P9, T1-T9, then
// Q1-Q5 at |Vq| = 4 ("Q4.1".."Q4.5") and |Vq| = 5 ("Q5.1".."Q5.5").
std::vector<NamedPattern> XmarkPaperPatterns(bool with_graph_patterns);

// For each pattern, `reps` times, one request of nested spans:
//   req.probe > query.parse, query.canonicalize, opt.plan,
//               exec.execute > exec.step.<KIND>..., core.match
// Emits query.*, opt.*, exec.* (counters per execution), gdb.getcodes_us
// and the gdb.* fetch counters, reach.probe_ns, reach.cover_per_node
// and core.match_overhead_us (Match against a second Execute of the same
// plan). Clears the matcher's result cache.
void ProbeLibraryLayers(fgpm::GraphMatcher* matcher, const fgpm::Graph& g,
                        const std::vector<NamedPattern>& pool, int reps,
                        uint64_t seed, fgpm::QueryTrace* spans, Report* report);

// Facts: the database's page count and the buffer pool's frame count
// (the working set against the cache), keys prefixed with `prefix`.
void AddStorageFacts(fgpm::GraphDatabase& db, const std::string& prefix,
                     Report* report);

// Records the process's peak resident set so far as a fact, then
// restarts the peak from the current RSS, so a peak_rss_mb read after the
// timed loop covers that loop and not the set-up or the oracles.
void StartPeakRssWindow(Report* report);

// reach.build_s: BuildTwoHopPruned on `g` (default options).
void ProbeReachBuild(const fgpm::Graph& g, Report* report);

// Per-module self time from the spans (<module>.self_ms, ms per
// traced request) and the Chrome trace's size.
void AddSelfTimes(const fgpm::QueryTrace& spans, Report* report);

// The serving layers (net, shard, common): a 2-shard net::Server in this
// process over a fixed scale-free graph, open-loop Zipf traffic at fixed
// rates drawn from `seed`, about `seconds` / 2 of load. Full wire rows
// are checked against a direct Match first. Emits net.*, shard.* and
// common.* (serving.cc).
void ProbeServing(uint64_t seed, double seconds, fgpm::QueryTrace* spans,
                  Report* report);

// Adds a 0 for every per-layer metric the workload did not emit, noted
// "not exercised": the layer is bypassed by this workload.
void FillUnexercised(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
