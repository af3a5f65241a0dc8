#include "report.h"

#include <charconv>
#include <cmath>
#include <set>

namespace perfbench {

std::string_view UnitName(Unit u) {
  switch (u) {
    case Unit::kSeconds: return "s";
    case Unit::kMillis: return "ms";
    case Unit::kMicros: return "us";
    case Unit::kNanos: return "ns";
    case Unit::kMiB: return "MiB";
    case Unit::kPerSecond: return "1/s";
    case Unit::kCount: return "count";
    case Unit::kRatio: return "ratio";
  }
  return "?";
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view k) {
  String(k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  out_ += '"';
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += ' ';
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double v) {
  Separate();
  if (!std::isfinite(v)) {
    out_ += "null";  // Report::Check refuses such a result
    return *this;
  }
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::Integer(uint64_t v) {
  Separate();
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool b) {
  Separate();
  out_ += b ? "true" : "false";
  return *this;
}

void Report::Add(std::string name, Unit unit, double value, uint64_t samples) {
  Metric m;
  m.name = std::move(name);
  m.unit = unit;
  m.value = value;
  m.samples = samples;
  metrics_.push_back(std::move(m));
}

void Report::AddRatio(std::string name, double num, double den, Unit unit) {
  Metric m;
  m.name = std::move(name);
  m.unit = unit;
  m.value = den != 0 ? num / den : 0;
  m.has_base = true;
  m.num = num;
  m.den = den;
  metrics_.push_back(std::move(m));
}

void Report::Annotate(std::string_view name, std::string note) {
  for (Metric& m : metrics_) {
    if (m.name == name) m.note = std::move(note);
  }
}

void Report::Fail(std::string what) {
  ++failed_;
  correct_ = false;
  if (errors_.size() < 16) errors_.push_back(std::move(what));
}

void Report::Invalidate(std::string what) {
  correct_ = false;
  if (errors_.size() < 16) errors_.push_back(std::move(what));
}

void Report::Fact(std::string key, double value) {
  facts_.emplace_back(std::move(key), value);
}

std::vector<std::string> Report::Check() const {
  std::vector<std::string> problems;
  std::set<std::string> seen;
  for (const Metric& m : metrics_) {
    if (!seen.insert(m.name).second) {
      problems.push_back("metric emitted twice: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      problems.push_back("metric not finite: " + m.name);
    }
  }
  if (attempted_ == 0) problems.push_back("no operation attempted");
  return problems;
}

std::string Report::ResultLine() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct_);
  w.Key("attempted").Integer(attempted_);
  w.Key("failed").Integer(failed_);
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics_) {
    w.Key(m.name).BeginObject();
    w.Key("value").Number(m.value);
    w.Key("unit").String(UnitName(m.unit));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string Report::DetailLine(
    const std::vector<std::pair<std::string, std::string>>& env) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("env").BeginObject();
  for (const auto& [k, v] : env) w.Key(k).String(v);
  w.EndObject();
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics_) {
    w.Key(m.name).BeginObject();
    w.Key("value").Number(m.value);
    w.Key("unit").String(UnitName(m.unit));
    if (m.has_base) {
      w.Key("num").Number(m.num);
      w.Key("den").Number(m.den);
    }
    if (m.samples > 0) w.Key("samples").Integer(m.samples);
    if (!m.note.empty()) w.Key("note").String(m.note);
    w.EndObject();
  }
  w.EndObject();
  w.Key("facts").BeginObject();
  for (const auto& [k, v] : facts_) w.Key(k).Number(v);
  w.EndObject();
  w.Key("errors").BeginArray();
  for (const std::string& e : errors_) w.String(e);
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace perfbench
