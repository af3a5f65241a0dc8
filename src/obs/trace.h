// Span-based query tracing. A QueryTrace is owned by one executor call
// and records one span per plan step (plus a root span for the query
// and child spans for selects fused into a fetch): wall time against
// the trace's own epoch, process CPU time, and a flat list of named
// counter deltas the instrumenting layer attaches (rows in/out, code
// fetches, W-table lookups, buffer-pool and code-cache
// hit/miss deltas — the stats-delta protocol described in DESIGN.md).
// Spans are generic name/value records so this layer depends on nothing
// above common/; the executor translates OperatorStats / IoSnapshot
// deltas into args.
//
// Dump formats: ToChromeJson() emits Chrome trace_event "X" (complete)
// events loadable in chrome://tracing / Perfetto; ToString() renders an
// indented human-readable profile.
//
// Thread model: a trace is single-writer (the executor thread). Workers
// never touch it — parallel operators fold their chunk stats first, and
// the executor attributes the folded delta to the step's span.
#ifndef FGPM_OBS_TRACE_H_
#define FGPM_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace fgpm {

struct TraceSpan {
  uint32_t id = 0;
  int32_t parent = -1;  // index into spans(); -1 = root
  uint32_t tid = 0;     // Chrome-trace row: worker/shard that ran the span
  std::string name;     // e.g. "FETCH(C->D)" or the pattern text
  std::string category; // "query" | "operator" | "optimize" | ...
  double start_us = 0;  // relative to the trace epoch
  double wall_us = 0;
  double cpu_us = 0;    // process CPU over the span (covers pool workers)
  // Counter deltas attributed to this span, in insertion order.
  std::vector<std::pair<std::string, uint64_t>> args;

  const uint64_t* FindArg(std::string_view key) const {
    for (const auto& [k, v] : args) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class QueryTrace {
 public:
  QueryTrace();  // stamps the epoch
  // Builds a trace against a caller-supplied epoch, so per-shard child
  // traces of one distributed request share a timeline with the origin
  // trace (same process => same steady clock) and stitch without skew.
  explicit QueryTrace(uint64_t epoch_steady_ns);

  // Opens a span starting now. Returns its id (== index in spans()).
  uint32_t BeginSpan(std::string name, std::string category,
                     int32_t parent = -1);
  // Stamps wall/CPU duration. Must pair with the matching BeginSpan.
  void EndSpan(uint32_t id);

  void AddArg(uint32_t id, std::string key, uint64_t value) {
    spans_[id].args.emplace_back(std::move(key), value);
  }

  // Appends a fully specified span (golden tests, absorbed-step child
  // spans that mirror their parent's interval).
  uint32_t AddCompleteSpan(std::string name, std::string category,
                           int32_t parent, double start_us, double wall_us,
                           double cpu_us);

  // Chrome-trace row for a span (shard/worker index in stitched dumps).
  void SetSpanTid(uint32_t id, uint32_t tid) { spans_[id].tid = tid; }

  // Distributed-trace identity. 0 = unsampled/anonymous.
  void set_trace_id(uint64_t id) { trace_id_ = id; }
  uint64_t trace_id() const { return trace_id_; }

  uint64_t epoch_steady_ns() const { return epoch_steady_ns_; }

  // Grafts every span of `child` under this trace's span `parent`
  // (child roots re-parent to `parent`; child-internal parent links are
  // preserved with rebased indices). Span starts are shifted by the
  // epoch delta so a child built against a different epoch lands at the
  // right wall offset. Returns the index of the first grafted span.
  uint32_t Stitch(const QueryTrace& child, int32_t parent);

  const std::vector<TraceSpan>& spans() const { return spans_; }

  // Chrome trace_event JSON ({"displayTimeUnit", "traceEvents": [...]}).
  std::string ToChromeJson() const;
  // Indented per-span profile (depth from parent links).
  std::string ToString() const;

 private:
  double NowUs() const;
  static double CpuNowUs();

  uint64_t epoch_steady_ns_ = 0;
  uint64_t trace_id_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<double> cpu_at_begin_;  // parallel to spans_
};

}  // namespace fgpm

#endif  // FGPM_OBS_TRACE_H_
