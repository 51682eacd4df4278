#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/json_writer.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("Median: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("ComputeQuartiles: need two values");
  }
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i < 4; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<std::size_t>(j)] *
                    static_cast<double>(delta)) /
               4.0;
  }
  return Quartiles{q[0], q[1], q[2]};
}

void PrintSpread(const char* label, const std::vector<double>& values) {
  if (values.size() < 2) return;
  const Quartiles q = ComputeQuartiles(values);
  std::printf("%s: n=%zu min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n",
              label, values.size(),
              *std::min_element(values.begin(), values.end()), q.q1, q.q2,
              q.q3, *std::max_element(values.begin(), values.end()));
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

namespace {

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

}  // namespace

int SpanRecorder::Add(Span span) {
  if (span.end_ns < span.begin_ns) {
    throw std::invalid_argument("SpanRecorder: span ends before it begins");
  }
  if (span.parent >= static_cast<int>(spans_.size())) {
    throw std::invalid_argument("SpanRecorder: parent recorded after child");
  }
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::Close(int index, std::uint64_t end_ns) {
  Span& span = spans_.at(static_cast<std::size_t>(index));
  if (end_ns < span.begin_ns) {
    throw std::invalid_argument("SpanRecorder: span ends before it begins");
  }
  span.end_ns = end_ns;
}

std::uint64_t SpanRecorder::SelfNs(int index) const {
  const Span& span = spans_.at(static_cast<std::size_t>(index));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
  for (const Span& child : spans_) {
    if (child.parent != index) continue;
    const std::uint64_t begin = std::max(child.begin_ns, span.begin_ns);
    const std::uint64_t end = std::min(child.end_ns, span.end_ns);
    if (end > begin) children.emplace_back(begin, end);
  }
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = span.begin_ns;
  for (const auto& [begin, end] : children) {
    const std::uint64_t from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return (span.end_ns - span.begin_ns) - covered;
}

std::uint64_t SpanRecorder::TotalSelfNs(std::string_view name) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += SelfNs(static_cast<int>(i));
  }
  return total;
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!ValidMetricName(name)) {
    throw std::invalid_argument("metric name \"" + name +
                                "\" breaks the [A-Za-z0-9_.-] rule");
  }
  if (!ValidUnit(unit)) {
    throw std::invalid_argument("metric unit \"" + unit + "\" is invalid");
  }
  if (!std::isfinite(value)) {
    throw std::invalid_argument("metric " + name + " is not finite");
  }
  metrics_[name] = {value, unit};
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

std::string Report::Json() const {
  // Values keep every digit (%.17g round-trips a double); the metrics
  // object is empty on a failed run.
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(correct_ ? 0 : attempted_);
  out += ", \"metrics\": {";
  if (correct_) {
    bool first = true;
    for (const auto& [name, entry] : metrics_) {
      char value[40];
      std::snprintf(value, sizeof value, "%.17g", entry.first);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
             entry.second + "\"}";
    }
  }
  out += "}}";
  return out;
}

void PrintProvenance(const Provenance& provenance) {
  hotspots::obs::JsonWriter writer{0};
  writer.BeginObject();
  writer.KV("workload", provenance.workload);
  writer.KV("workload_seed", provenance.seed);
  writer.KV("size", provenance.size);
  writer.KV("repetitions",
            static_cast<std::uint64_t>(provenance.repetitions));
  writer.KV("setup_repetitions",
            static_cast<std::uint64_t>(provenance.setup_repetitions));
  writer.KV("threads", static_cast<std::uint64_t>(provenance.threads));
  writer.KV("compiler", std::string("g++ ") + __VERSION__);
  writer.KV("build_type", PERFBENCH_BUILD_TYPE);
  writer.EndObject();
  std::printf("provenance %s\n", writer.str().c_str());
}

}  // namespace perfbench
