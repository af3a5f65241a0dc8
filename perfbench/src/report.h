// Typed result writer for the benchmark. Metrics are added through
// typed calls (a unit enum, a value, optionally the ratio's base and the
// sample count); JSON is produced by a small writer that formats numbers
// with std::to_chars, so no printf-style format string can pair a value
// with the wrong slot.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class Unit { kSeconds, kMillis, kMicros, kNanos, kMiB, kPerSecond,
                  kCount, kRatio };

std::string_view UnitName(Unit u);

// Minimal streaming JSON writer (objects, arrays, strings, numbers,
// bools). Commas are inserted automatically.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view k);
  JsonWriter& String(std::string_view s);
  JsonWriter& Number(double v);
  JsonWriter& Integer(uint64_t v);
  JsonWriter& Bool(bool b);
  const std::string& str() const { return out_; }

 private:
  void Separate();
  std::string out_;
  std::vector<bool> first_;  // per open container: nothing written yet
  bool after_key_ = false;
};

struct Metric {
  std::string name;
  Unit unit = Unit::kCount;
  double value = 0;
  // Ratios carry their base: value == num / den.
  bool has_base = false;
  double num = 0, den = 0;
  uint64_t samples = 0;  // 0 = not a sampled statistic
  std::string note;      // e.g. "morsel-only"
};

class Report {
 public:
  void Add(std::string name, Unit unit, double value, uint64_t samples = 0);
  // value = num / den, 0 when den == 0; the base is printed beside it.
  void AddRatio(std::string name, double num, double den,
                Unit unit = Unit::kRatio);
  void Annotate(std::string_view name, std::string note);

  void CountAttempts(uint64_t n) { attempted_ += n; }
  // One failed, refused or mismatched operation; also marks the run
  // incorrect. `what` is kept for the detail line (first few only).
  void Fail(std::string what);
  // Marks the run incorrect without counting an operation (e.g. a
  // broken invariant of the benchmark itself).
  void Invalidate(std::string what);

  // Free-form facts recorded in the detail line (sizes, rates, counts).
  void Fact(std::string key, double value);

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  // Self-check: every metric name once, every value finite. Returns the
  // problems found (empty when clean).
  std::vector<std::string> Check() const;

  // The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string ResultLine() const;
  // Everything else: environment stamp, ratio bases, sample counts,
  // facts and failure messages.
  std::string DetailLine(const std::vector<std::pair<std::string, std::string>>&
                             env) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> facts_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
