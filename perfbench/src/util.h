// Timing, statistics and span recording shared by the workloads.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

// q in [0, 1], nearest-rank on a sorted copy. 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(std::ceil(q * v.size()));
  if (i > 0) --i;
  return v[std::min(i, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Geometric mean of positive values (non-positive entries are skipped).
inline double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  size_t n = 0;
  for (double x : v) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

// Geometric mean over patterns of each pattern's median latency
// (patterns never sampled are skipped).
inline double GeoMeanOfMedians(
    const std::vector<std::vector<double>>& per_pattern) {
  std::vector<double> medians;
  for (const auto& v : per_pattern) {
    if (!v.empty()) medians.push_back(Median(v));
  }
  return GeoMean(medians);
}

// Returns freed heap to the system and restarts the peak resident set
// (VmHWM) from the current RSS, so a later PeakRssMiB() covers only what
// ran after this call. False when the kernel refused the reset.
inline bool ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Peak resident set (VmHWM) of this process in MiB.
inline double PeakRssMiB() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

// Spans of the traced run are recorded in the program's own
// fgpm::QueryTrace. Names are "<module>.<what>" and the category is the
// module; a request's root span is "req.<kind>". A root span's Chrome-trace
// row (tid) is its own id and a child takes its parent's, so each request
// is one row.
inline std::string_view ModuleOf(std::string_view name) {
  return name.substr(0, name.find('.'));
}

inline uint32_t RequestRow(const fgpm::QueryTrace& t, uint32_t id,
                           int32_t parent) {
  return parent < 0 ? id : t.spans()[parent].tid;
}

// Appends a span measured elsewhere, from steady-clock nanoseconds.
inline uint32_t AddSpan(fgpm::QueryTrace* t, std::string_view name,
                        int32_t parent, int64_t start_ns, int64_t end_ns) {
  const int64_t epoch = static_cast<int64_t>(t->epoch_steady_ns());
  uint32_t id = t->AddCompleteSpan(
      std::string(name), std::string(ModuleOf(name)), parent,
      (start_ns - epoch) / 1e3, (end_ns - start_ns) / 1e3, 0);
  t->SetSpanTid(id, RequestRow(*t, id, parent));
  return id;
}

inline uint64_t CountRequests(const fgpm::QueryTrace& t) {
  uint64_t n = 0;
  for (const fgpm::TraceSpan& s : t.spans()) n += s.parent < 0 ? 1 : 0;
  return n;
}

// Self time per module: a span's duration minus the time its direct
// children cover, summed by category.
inline std::map<std::string, double> SelfMsByModule(
    const fgpm::QueryTrace& t) {
  const std::vector<fgpm::TraceSpan>& spans = t.spans();
  std::vector<double> child_us(spans.size(), 0);
  for (const fgpm::TraceSpan& s : spans) {
    if (s.parent >= 0) child_us[s.parent] += s.wall_us;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].category] +=
        std::max(0.0, spans[i].wall_us - child_us[i]) / 1e3;
  }
  return out;
}

// Records a span for the enclosing scope when `trace` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(fgpm::QueryTrace* trace, std::string_view name, int32_t parent)
      : trace_(trace), id_(trace ? Begin(trace, name, parent) : 0) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return trace_ ? static_cast<int32_t>(id_) : -1; }

 private:
  static uint32_t Begin(fgpm::QueryTrace* t, std::string_view name,
                        int32_t parent) {
    uint32_t id = t->BeginSpan(std::string(name),
                               std::string(ModuleOf(name)), parent);
    t->SetSpanTid(id, RequestRow(*t, id, parent));
    return id;
  }

  fgpm::QueryTrace* trace_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
