// Measurement plumbing shared by the benchmark workloads: clocks, order
// statistics, metric naming, span self time and the result line.
//
// Every workload ends by printing one JSON object as the last line of
// standard output:
//
//   {"correct": true, "attempted": 12, "failed": 0,
//    "metrics": {"wall_s": {"value": 0.8127, "unit": "s"}, ...}}
//
// `attempted` counts the timed operations (repetitions, or loads for the
// ingest workload); a failed correctness check marks every one of them
// failed and the metrics object stays empty, so a wrong answer never
// yields a number.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Median of `values` (mean of the two middle values for even sizes).
/// Throws std::invalid_argument on an empty input.
[[nodiscard]] double Median(std::vector<double> values);

/// Quartiles (q1, q2, q3) by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so the harness and the steadiness
/// tooling agree on what a spread is.  Needs at least two values.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles ComputeQuartiles(std::vector<double> values);

/// Prints `label: n=… min … q1 … median … q3 … max …` for a sample (a
/// detail line for reading a run's own noise).
void PrintSpread(const char* label, const std::vector<double>& values);

/// True for names of 1..64 characters from [A-Za-z0-9_.-] that start with
/// a letter or a digit — the benchmark's metric-name rule.
[[nodiscard]] bool ValidMetricName(std::string_view name);

/// A timed region on one thread.  `parent` is the index of the enclosing
/// span in the same recorder, or -1 for a root.
struct Span {
  std::string name;
  int parent = -1;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Collects spans recorded around calls into each layer.  Not
/// thread-safe: worker threads buffer their own spans and hand them over
/// at a serial point.
class SpanRecorder {
 public:
  /// Appends a span and returns its index (for use as a parent).
  int Add(Span span);
  /// Sets the end of span `index` (a parent opened before its children).
  void Close(int index, std::uint64_t end_ns);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of span `index`: its duration minus the part of its
  /// interval covered by its direct children (overlapping children, e.g.
  /// parallel shards, are counted once).
  [[nodiscard]] std::uint64_t SelfNs(int index) const;

  /// Sum of SelfNs over every span named `name`.
  [[nodiscard]] std::uint64_t TotalSelfNs(std::string_view name) const;

 private:
  std::vector<Span> spans_;
};

/// Peak resident set size of this process, in MiB (getrusage).
[[nodiscard]] double PeakRssMb();

/// The result line of one benchmark run.
class Report {
 public:
  /// Records one metric; throws std::invalid_argument for a name or unit
  /// outside the benchmark's rules or a non-finite value.
  void Metric(const std::string& name, double value, const std::string& unit);

  /// Marks the run incorrect and prints `why` to stderr.  Idempotent in
  /// effect: one failure is enough to void the run's numbers.
  void Fail(const std::string& why);

  void set_attempted(std::uint64_t attempted) { attempted_ = attempted; }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  metrics() const {
    return metrics_;
  }

  /// Renders the result object.  A failed run reports every attempted
  /// operation as failed and no metrics.
  [[nodiscard]] std::string Json() const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// One line of provenance the harness knows best about itself (compiler,
/// build type, seed, repetitions), printed as `provenance {json}`; the
/// runner script adds host facts to it.
struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  int repetitions = 0;
  int setup_repetitions = 0;
  int threads = 0;
  std::string size;
};
void PrintProvenance(const Provenance& provenance);

}  // namespace perfbench
