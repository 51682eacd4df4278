// Outside-in layer measurement.
//
// Nothing here adds timing inside src/: every per-layer number comes from
// timing calls into a layer's public entry points from the benchmark's own
// code.  Two techniques cover the layers:
//
//  * TimedFold wraps a MergeableObserver and timestamps the engine's (or
//    the ingest fold's) calls into it — OnShardBatch per shard per step,
//    MergeShardStates per step.  From those timestamps alone it derives
//    the fold cost per event, the merge cost per step, how many steps fan
//    out, shard imbalance and the serial (caller-only) time.
//  * The engine-internal layers — targeting, reachability, fault verdicts,
//    victim lookup — are driven over a probe stream captured from the
//    workload's own run (StrideCapture), through the same public entry
//    points the engine calls (HostScanner::NextTarget,
//    Reachability::Decide, DeliveryFaultHook::ShardProbeVerdict,
//    Population::FindInSite).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "detect/probe_stream.h"
#include "fault/schedule.h"
#include "report.h"
#include "serve/load_client.h"
#include "sim/observer.h"
#include "sim/targeting.h"
#include "telescope/telescope.h"
#include "topology/reachability.h"

namespace perfbench {

/// Timing wrapper around a mergeable observer (see file comment).  The
/// wrapped observer sees exactly the calls it would see unwrapped.
class TimedFold final : public hotspots::sim::ProbeObserver,
                        public hotspots::sim::MergeableObserver {
 public:
  struct Stats {
    std::uint64_t events = 0;       ///< Events passed to OnShardBatch.
    std::uint64_t fold_ns = 0;      ///< Σ OnShardBatch time, all shards.
    std::uint64_t merge_ns = 0;     ///< Σ MergeShardStates time.
    std::uint64_t finalize_ns = 0;  ///< Σ FinalizeShardStates time.
    std::uint64_t steps = 0;        ///< MergeShardStates calls.
    std::uint64_t fanned_steps = 0; ///< Steps where ≥2 shards folded.
    /// Caller-only wall time: whole steps that ran on one shard, plus the
    /// commit tail (last shard done → merge done) of fanned-out steps.
    double serial_s = 0.0;
    /// Over fanned-out steps: Σ slowest shard finish and Σ mean shard
    /// finish, both measured from the step's start (previous merge end).
    double finish_max_sum_s = 0.0;
    double finish_mean_sum_s = 0.0;

    [[nodiscard]] double Imbalance() const {
      return finish_mean_sum_s > 0.0 ? finish_max_sum_s / finish_mean_sum_s
                                     : 1.0;
    }
    [[nodiscard]] double BusyNs() const {
      return static_cast<double>(fold_ns + merge_ns + finalize_ns);
    }
    /// Accumulates another run's stats.
    void Add(const Stats& other);
    /// The mean over `runs` accumulated runs (ratios are unchanged).
    [[nodiscard]] Stats PerRun(std::size_t runs) const;
  };

  /// `inner` must be mergeable.  When `spans` is non-null, every fold and
  /// merge call is also recorded as a span under `parent_span`.
  explicit TimedFold(hotspots::sim::ProbeObserver& inner,
                     SpanRecorder* spans = nullptr, int parent_span = -1);

  void OnAttach() override { inner_.OnAttach(); }
  void OnProbe(const hotspots::sim::ProbeEvent& event) override {
    inner_.OnProbe(event);
  }
  void OnProbeBatch(std::span<const hotspots::sim::ProbeEvent> events) override {
    inner_.OnProbeBatch(events);
  }
  [[nodiscard]] hotspots::sim::MergeableObserver* AsMergeable() override {
    return this;
  }

  [[nodiscard]] std::unique_ptr<hotspots::sim::ObserverShardState>
  ForkShardState(int shard) override;
  void OnShardBatch(hotspots::sim::ObserverShardState& state,
                    std::span<const hotspots::sim::ProbeEvent> events) override;
  void MergeShardStates(
      std::span<hotspots::sim::ObserverShardState* const> states) override;
  void FinalizeShardStates(
      std::span<hotspots::sim::ObserverShardState* const> states) override;
  [[nodiscard]] bool WantsSerialSpans() const override {
    return mergeable_->WantsSerialSpans();
  }
  void OnCommittedSpan(
      std::span<const hotspots::sim::ProbeEvent> events) override {
    mergeable_->OnCommittedSpan(events);
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  class ShardState;

  hotspots::sim::ProbeObserver& inner_;
  hotspots::sim::MergeableObserver* mergeable_;
  SpanRecorder* spans_;
  int parent_span_;
  std::uint64_t step_start_ns_ = 0;
  std::vector<hotspots::sim::ObserverShardState*> scratch_;
  Stats stats_;
};

/// Keeps every `stride`-th probe event of a run (serial observer), up to
/// `max_events`, preserving emission order.
class StrideCapture final : public hotspots::sim::ProbeObserver {
 public:
  StrideCapture(std::uint64_t stride, std::size_t max_events);
  void OnProbe(const hotspots::sim::ProbeEvent& event) override;
  void OnProbeBatch(std::span<const hotspots::sim::ProbeEvent> events) override;
  [[nodiscard]] const std::vector<hotspots::sim::ProbeEvent>& events() const {
    return events_;
  }

 private:
  std::uint64_t stride_;
  std::size_t max_events_;
  std::uint64_t seen_ = 0;
  std::vector<hotspots::sim::ProbeEvent> events_;
};

/// Per-call cost of the engine-internal layers on a captured stream.
struct EngineLayers {
  double next_target_ns = 0.0;
  double decide_ns = 0.0;
  double delivered_ratio = 0.0;
  double find_victim_ns = 0.0;
  double victim_hit_ratio = 0.0;
  double fault_verdict_ns = 0.0;
  double fault_drop_ratio = 0.0;
};

/// Drives NextTarget (one scanner per captured source host, called in the
/// stream's source order), Decide (the stream's probes), FindInSite (the
/// stream's delivered probes, keyed as the engine keys them) and
/// ShardProbeVerdict under `faults` (the stream's delivered probes).
/// Each loop repeats until it has run for a fraction of a second and the
/// median pass is reported.
[[nodiscard]] EngineLayers MeasureEngineLayers(
    std::span<const hotspots::sim::ProbeEvent> stream,
    const hotspots::sim::Population& population,
    const hotspots::sim::Worm& worm,
    const hotspots::topology::Reachability& reachability,
    const hotspots::fault::FaultSchedule& faults, std::uint64_t seed);

/// Drives `observer` through the per-step fold protocol (fork one state,
/// OnShardBatch + MergeShardStates per same-timestamp run, finalize) over
/// `stream` and returns ns per event (fold and merge together).
[[nodiscard]] double FoldNsPerEvent(hotspots::sim::ProbeObserver& observer,
                                    std::span<const hotspots::sim::ProbeEvent>
                                        stream);

/// An anonymous in-memory file (memfd): trace corpora live here, so they
/// never touch a disk and vanish when the process exits, even on a crash.
class MemFile {
 public:
  explicit MemFile(const std::string& name);
  ~MemFile();
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;
  /// A path that opens this file (through /proc/self/fd).
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// Trace codec costs on a stream: synchronous TraceWriter encode and
/// StreamDecoder decode, per record, plus encoded bytes per record.
struct TraceLayers {
  double encode_ns_per_record = 0.0;
  double bytes_per_record = 0.0;
  double decode_ns_per_record = 0.0;
};
[[nodiscard]] TraceLayers MeasureTraceLayers(
    std::span<const hotspots::sim::ProbeEvent> stream);

/// One ingest session: an in-process TelescopeServer folding into
/// `observer`, fed `corpus` by serve::RunLoad over `connections` loopback
/// connections (closed loop, unthrottled, ends at the last ACK).
struct ServeResult {
  hotspots::serve::LoadReport load;
  std::uint64_t records_folded = 0;
  std::uint64_t sequence_gaps = 0;
};
[[nodiscard]] ServeResult ServeCorpus(const hotspots::serve::CorpusIndex& corpus,
                                      hotspots::sim::MergeableObserver& observer,
                                      std::uint32_t connections);

/// FNV-1a digest of a fleet's folded state: per-sensor probe counts,
/// unique sources, alert times and per-/24 histograms.
[[nodiscard]] std::uint64_t FleetDigest(
    const hotspots::telescope::Telescope& fleet);

/// Digest of a TRW gateway's folded state (first alert, counters).
[[nodiscard]] std::uint64_t TrwDigest(
    const hotspots::detect::TrwGatewayObserver& trw);

/// TRW over the scenario's populated /24s as the live (answering) space,
/// watching every source.
[[nodiscard]] std::unique_ptr<hotspots::detect::TrwGatewayObserver> MakeTrw(
    const hotspots::core::Scenario& scenario);

/// Everything a traced run can measure by driving layers over a probe
/// stream captured from its own workload.
struct StreamContext {
  std::span<const hotspots::sim::ProbeEvent> stream;
  const hotspots::core::Scenario& scenario;
  const hotspots::sim::Worm& worm;
  const hotspots::topology::Reachability& reachability;
  /// Builds a fresh copy of the workload's sensor fleet.
  std::function<hotspots::telescope::Telescope()> make_fleet;
  std::uint64_t seed = 0;
};

/// Reports every per-layer metric that can be driven from `context`'s
/// stream: the engine-internal layers, the trace codec, the telescope,
/// TRW and prevalence folds, and an ingest session of the stream through
/// the serve pipeline.  Workloads then overwrite the metrics they measure
/// in place (e.g. the fold cost on the engine's own worker threads).
void ReportStreamLayers(const StreamContext& context, Report& report);

/// Loopback connections of every ingest session (the thread budget: two
/// load threads, the server's I/O and fold threads).
inline constexpr std::uint32_t kServeConnections = 2;

/// Per-layer metrics every traced run reports, shared by the workloads.
void ReportEngineLayers(const EngineLayers& layers, Report& report);
void ReportFoldStats(const TimedFold::Stats& stats, Report& report);
void ReportTraceLayers(const TraceLayers& layers, Report& report);
/// obs.trace_overhead_pct from paired repetitions (untraced[i] ran just
/// before traced[i]): the median ratio, so slow machine phases, which hit
/// both halves of a pair, cancel.
void ReportTraceOverhead(const std::vector<double>& untraced_seconds,
                         const std::vector<double>& traced_seconds,
                         Report& report);

}  // namespace perfbench
