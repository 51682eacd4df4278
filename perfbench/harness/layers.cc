#include "layers.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "fault/delivery.h"
#include "net/interval_set.h"
#include "net/special_ranges.h"
#include "prng/splitmix.h"
#include "prng/xoshiro.h"
#include "serve/server.h"
#include "trace/format.h"
#include "trace/stream_decoder.h"
#include "trace/writer.h"
#include "workloads.h"

namespace perfbench {

namespace hs = hotspots;
using hs::sim::ProbeEvent;

// ---------------------------------------------------------------------------
// TimedFold

class TimedFold::ShardState final : public hs::sim::ObserverShardState {
 public:
  std::unique_ptr<hs::sim::ObserverShardState> inner;
  std::uint64_t step_batches = 0;  ///< OnShardBatch calls this step.
  std::uint64_t last_end_ns = 0;   ///< End of this step's last call.
  std::uint64_t fold_ns = 0;       ///< This step's OnShardBatch time.
  std::uint64_t events = 0;        ///< This step's events.
  /// Fold spans recorded on the worker thread, handed to the recorder at
  /// the next (serial) merge.
  std::vector<Span> pending_spans;
};

void TimedFold::Stats::Add(const Stats& other) {
  events += other.events;
  fold_ns += other.fold_ns;
  merge_ns += other.merge_ns;
  finalize_ns += other.finalize_ns;
  steps += other.steps;
  fanned_steps += other.fanned_steps;
  serial_s += other.serial_s;
  finish_max_sum_s += other.finish_max_sum_s;
  finish_mean_sum_s += other.finish_mean_sum_s;
}

TimedFold::Stats TimedFold::Stats::PerRun(std::size_t runs) const {
  if (runs == 0) return *this;
  const auto n = static_cast<std::uint64_t>(runs);
  const double d = static_cast<double>(runs);
  return Stats{events / n,       fold_ns / n,       merge_ns / n,
               finalize_ns / n,  steps / n,         fanned_steps / n,
               serial_s / d,     finish_max_sum_s / d,
               finish_mean_sum_s / d};
}

TimedFold::TimedFold(hs::sim::ProbeObserver& inner, SpanRecorder* spans,
                     int parent_span)
    : inner_(inner), mergeable_(inner.AsMergeable()), spans_(spans),
      parent_span_(parent_span) {
  if (mergeable_ == nullptr) {
    throw std::invalid_argument("TimedFold: observer is not mergeable");
  }
}

std::unique_ptr<hs::sim::ObserverShardState> TimedFold::ForkShardState(
    int shard) {
  auto state = std::make_unique<ShardState>();
  state->inner = mergeable_->ForkShardState(shard);
  step_start_ns_ = NowNs();
  return state;
}

void TimedFold::OnShardBatch(hs::sim::ObserverShardState& state,
                             std::span<const ProbeEvent> events) {
  auto& shard = static_cast<ShardState&>(state);
  const std::uint64_t t0 = NowNs();
  mergeable_->OnShardBatch(*shard.inner, events);
  const std::uint64_t t1 = NowNs();
  // Only this shard's thread touches its state between merges; the
  // engine's fork-join (or the single fold thread) orders these writes
  // before the merge that reads them.
  ++shard.step_batches;
  shard.last_end_ns = t1;
  shard.fold_ns += t1 - t0;
  shard.events += events.size();
  if (spans_ != nullptr) {
    shard.pending_spans.push_back(Span{"telescope.fold", parent_span_, t0, t1});
  }
}

void TimedFold::MergeShardStates(
    std::span<hs::sim::ObserverShardState* const> states) {
  scratch_.clear();
  int active = 0;
  std::uint64_t last_finish = 0;
  double finish_sum = 0.0;
  for (hs::sim::ObserverShardState* state : states) {
    auto& shard = static_cast<ShardState&>(*state);
    scratch_.push_back(shard.inner.get());
    if (shard.step_batches == 0) continue;
    ++active;
    last_finish = std::max(last_finish, shard.last_end_ns);
    finish_sum += static_cast<double>(shard.last_end_ns - step_start_ns_);
  }
  const std::uint64_t t0 = NowNs();
  mergeable_->MergeShardStates(scratch_);
  const std::uint64_t t1 = NowNs();

  ++stats_.steps;
  stats_.merge_ns += t1 - t0;
  if (active >= 2) {
    ++stats_.fanned_steps;
    stats_.finish_max_sum_s +=
        static_cast<double>(last_finish - step_start_ns_) * 1e-9;
    stats_.finish_mean_sum_s += finish_sum / active * 1e-9;
    stats_.serial_s += static_cast<double>(t1 - last_finish) * 1e-9;
  } else {
    stats_.serial_s += static_cast<double>(t1 - step_start_ns_) * 1e-9;
  }
  for (hs::sim::ObserverShardState* state : states) {
    auto& shard = static_cast<ShardState&>(*state);
    stats_.fold_ns += shard.fold_ns;
    stats_.events += shard.events;
    shard.step_batches = shard.fold_ns = shard.events = 0;
    if (spans_ != nullptr) {
      for (Span& span : shard.pending_spans) spans_->Add(std::move(span));
      shard.pending_spans.clear();
    }
  }
  if (spans_ != nullptr) {
    spans_->Add(Span{"telescope.merge", parent_span_, t0, t1});
  }
  step_start_ns_ = t1;
}

void TimedFold::FinalizeShardStates(
    std::span<hs::sim::ObserverShardState* const> states) {
  scratch_.clear();
  for (hs::sim::ObserverShardState* state : states) {
    scratch_.push_back(static_cast<ShardState&>(*state).inner.get());
  }
  const std::uint64_t t0 = NowNs();
  mergeable_->FinalizeShardStates(scratch_);
  stats_.finalize_ns += NowNs() - t0;
}

// ---------------------------------------------------------------------------
// StrideCapture

StrideCapture::StrideCapture(std::uint64_t stride, std::size_t max_events)
    : stride_(std::max<std::uint64_t>(1, stride)), max_events_(max_events) {
  events_.reserve(max_events_);
}

void StrideCapture::OnProbe(const ProbeEvent& event) {
  if (seen_++ % stride_ == 0 && events_.size() < max_events_) {
    events_.push_back(event);
  }
}

void StrideCapture::OnProbeBatch(std::span<const ProbeEvent> events) {
  for (const ProbeEvent& event : events) OnProbe(event);
}

// ---------------------------------------------------------------------------
// Engine-internal layers

namespace {

/// Repeats `pass` (which performs `ops` operations) until at least
/// `min_seconds` have elapsed and at least three passes ran; returns the
/// median ns per operation.
template <typename Pass>
double MedianNsPerOp(std::size_t ops, double min_seconds, Pass&& pass) {
  if (ops == 0) return 0.0;
  std::vector<double> per_op;
  const auto start = Clock::now();
  while (per_op.size() < 3 ||
         SecondsBetween(start, Clock::now()) < min_seconds) {
    const std::uint64_t t0 = NowNs();
    pass();
    per_op.push_back(static_cast<double>(NowNs() - t0) /
                     static_cast<double>(ops));
  }
  return Median(per_op);
}

constexpr double kLayerSeconds = 0.25;

/// Keeps the optimizer from discarding a loop's results.
volatile std::uint64_t g_sink = 0;
void Sink(std::uint64_t value) { g_sink = value; }

}  // namespace

EngineLayers MeasureEngineLayers(std::span<const ProbeEvent> stream,
                                 const hs::sim::Population& population,
                                 const hs::sim::Worm& worm,
                                 const hs::topology::Reachability& reachability,
                                 const hs::fault::FaultSchedule& faults,
                                 std::uint64_t seed) {
  EngineLayers layers;
  if (stream.empty()) return layers;

  // Targeting: one scanner per captured source, called in stream order.
  std::unordered_map<hs::sim::HostId, std::size_t> scanner_of;
  std::vector<std::unique_ptr<hs::sim::HostScanner>> scanners;
  std::vector<std::uint32_t> order;
  order.reserve(stream.size());
  hs::prng::SplitMix64 entropy{seed};
  for (const ProbeEvent& event : stream) {
    auto [it, inserted] = scanner_of.try_emplace(event.src_host, scanners.size());
    if (inserted) {
      scanners.push_back(
          worm.MakeScanner(population.host(event.src_host), entropy.Next()));
    }
    order.push_back(static_cast<std::uint32_t>(it->second));
  }
  {
    hs::prng::Xoshiro256 rng{seed};
    layers.next_target_ns = MedianNsPerOp(order.size(), kLayerSeconds, [&] {
      std::uint64_t checksum = 0;
      for (const std::uint32_t index : order) {
        checksum += scanners[index]->NextTarget(rng).value();
      }
      Sink(checksum);
    });
  }

  // Reachability: the stream's probes with their sources' attributes.
  std::vector<hs::topology::Probe> probes;
  probes.reserve(stream.size());
  for (const ProbeEvent& event : stream) {
    const hs::sim::Host& src = population.host(event.src_host);
    hs::topology::Probe probe;
    probe.src = src.address;
    probe.dst = event.dst;
    probe.src_site = src.nat_site;
    probe.src_org = src.org;
    probes.push_back(probe);
  }
  {
    hs::prng::Xoshiro256 rng{seed ^ 0xdec1de};
    std::uint64_t delivered = 0;
    layers.decide_ns = MedianNsPerOp(probes.size(), kLayerSeconds, [&] {
      delivered = 0;
      for (const hs::topology::Probe& probe : probes) {
        delivered += reachability.Decide(probe, rng) ==
                     hs::topology::Delivery::kDelivered;
      }
    });
    layers.delivered_ratio =
        static_cast<double>(delivered) / static_cast<double>(probes.size());
  }

  // Victim lookup and fault verdicts: the stream's delivered probes.
  std::vector<std::pair<hs::topology::SiteId, hs::net::Ipv4>> keys;
  std::vector<const ProbeEvent*> delivered_events;
  for (const ProbeEvent& event : stream) {
    if (event.delivery != hs::topology::Delivery::kDelivered) continue;
    const hs::sim::Host& src = population.host(event.src_host);
    keys.emplace_back(hs::net::IsPrivate(event.dst) ? src.nat_site
                                                    : hs::topology::kPublicSite,
                      event.dst);
    delivered_events.push_back(&event);
  }
  if (!keys.empty()) {
    std::uint64_t hits = 0;
    layers.find_victim_ns = MedianNsPerOp(keys.size(), kLayerSeconds, [&] {
      hits = 0;
      for (const auto& [site, dst] : keys) {
        hits += population.FindInSite(site, dst) != hs::sim::kInvalidHost;
      }
    });
    layers.victim_hit_ratio =
        static_cast<double>(hits) / static_cast<double>(keys.size());

    std::uint64_t dropped = 0;
    layers.fault_verdict_ns =
        MedianNsPerOp(delivered_events.size(), kLayerSeconds, [&] {
          hs::fault::DeliveryFaults hook{faults};
          hook.OnRunStart(seed);
          hs::prng::Xoshiro256 fault_stream{hook.ShardStreamSalt()};
          double step_time = -1.0;
          dropped = 0;
          for (const ProbeEvent* event : delivered_events) {
            if (event->time != step_time) {
              step_time = event->time;
              hook.BeginStep(step_time);
            }
            dropped += hook.ShardProbeVerdict(event->time, event->dst,
                                              hs::topology::Delivery::kDelivered,
                                              fault_stream)
                           .verdict != hs::topology::Delivery::kDelivered;
          }
        });
    layers.fault_drop_ratio = static_cast<double>(dropped) /
                              static_cast<double>(delivered_events.size());
  }
  return layers;
}

double FoldNsPerEvent(hs::sim::ProbeObserver& observer,
                      std::span<const ProbeEvent> stream) {
  hs::sim::MergeableObserver* mergeable = observer.AsMergeable();
  if (mergeable == nullptr) {
    throw std::invalid_argument("FoldNsPerEvent: observer is not mergeable");
  }
  if (stream.empty()) return 0.0;
  observer.OnAttach();
  auto state = mergeable->ForkShardState(0);
  hs::sim::ObserverShardState* one[] = {state.get()};
  const std::uint64_t t0 = NowNs();
  std::size_t i = 0;
  while (i < stream.size()) {
    std::size_t j = i + 1;
    while (j < stream.size() && stream[j].time == stream[i].time) ++j;
    mergeable->OnShardBatch(*state, stream.subspan(i, j - i));
    mergeable->MergeShardStates(one);
    i = j;
  }
  mergeable->FinalizeShardStates(one);
  return static_cast<double>(NowNs() - t0) /
         static_cast<double>(stream.size());
}

// ---------------------------------------------------------------------------
// MemFile

MemFile::MemFile(const std::string& name) {
  fd_ = ::memfd_create(name.c_str(), MFD_CLOEXEC);
  if (fd_ < 0) {
    throw std::runtime_error("memfd_create failed: " +
                             std::string(std::strerror(errno)));
  }
  path_ = "/proc/self/fd/" + std::to_string(fd_);
}

MemFile::~MemFile() {
  if (fd_ >= 0) ::close(fd_);
}

// ---------------------------------------------------------------------------
// Trace codec

TraceLayers MeasureTraceLayers(std::span<const ProbeEvent> stream) {
  TraceLayers layers;
  if (stream.empty()) return layers;
  constexpr std::size_t kBatch = 4096;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  const auto start = Clock::now();
  while (encode_ns.size() < 3 ||
         SecondsBetween(start, Clock::now()) < 2 * kLayerSeconds) {
    MemFile file{"perfbench-codec"};
    std::uint64_t bytes = 0;
    {
      hs::trace::TraceWriterOptions options;
      options.pipeline = hs::trace::PipelineMode::kOff;
      hs::trace::TraceWriter writer{file.path(), options};
      writer.OnAttach();
      const std::uint64_t t0 = NowNs();
      for (std::size_t i = 0; i < stream.size(); i += kBatch) {
        writer.OnProbeBatch(
            stream.subspan(i, std::min(kBatch, stream.size() - i)));
      }
      writer.Finish();
      encode_ns.push_back(static_cast<double>(NowNs() - t0));
      bytes = writer.bytes_written();
    }
    layers.bytes_per_record =
        static_cast<double>(bytes) / static_cast<double>(stream.size());

    const hs::serve::CorpusIndex encoded{file.path()};
    hs::trace::StreamDecoder decoder{"perfbench-codec"};
    std::uint64_t records = 0;
    const std::uint64_t t0 = NowNs();
    decoder.Feed(encoded.bytes());
    while (true) {
      const auto batch = decoder.NextBatch();
      if (batch.empty()) break;
      records += batch.size();
    }
    decoder.FinishEof();
    decode_ns.push_back(static_cast<double>(NowNs() - t0));
    if (records != stream.size()) {
      throw std::runtime_error("trace codec round trip lost records");
    }
  }
  const double n = static_cast<double>(stream.size());
  layers.encode_ns_per_record = Median(encode_ns) / n;
  layers.decode_ns_per_record = Median(decode_ns) / n;
  return layers;
}

// ---------------------------------------------------------------------------
// Ingest session

ServeResult ServeCorpus(const hs::serve::CorpusIndex& corpus,
                        hs::sim::MergeableObserver& observer,
                        std::uint32_t connections) {
  hs::serve::ServerOptions options;
  hs::serve::TelescopeServer server{observer, options};
  server.Bind();
  std::exception_ptr server_error;
  std::thread server_thread{[&] {
    try {
      server.Run();
    } catch (...) {
      server_error = std::current_exception();
    }
  }};
  ServeResult result;
  hs::serve::LoadOptions load;
  load.port = server.port();
  load.connections = connections;
  try {
    result.load = hs::serve::RunLoad(corpus, load);
  } catch (...) {
    server.RequestShutdown();
    server_thread.join();
    throw;
  }
  server.RequestShutdown();
  server_thread.join();
  if (server_error) std::rethrow_exception(server_error);
  result.records_folded = server.fold().records_folded();
  result.sequence_gaps = server.fold().sequence_gaps();
  return result;
}

// ---------------------------------------------------------------------------
// Digests and shared observers

std::uint64_t FleetDigest(const hs::telescope::Telescope& fleet) {
  hs::trace::Fingerprint fingerprint;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const auto& sensor = fleet.sensor(static_cast<int>(i));
    fingerprint.Mix(sensor.probe_count());
    fingerprint.Mix(sensor.UniqueSourceCount());
    fingerprint.MixDouble(sensor.alert_time().value_or(-1.0));
    for (const auto& row : sensor.Histogram()) {
      if (row.stats.probes == 0) continue;
      fingerprint.Mix(row.slash24);
      fingerprint.Mix(row.stats.probes);
      fingerprint.Mix(row.stats.unique_sources);
    }
  }
  return fingerprint.hash;
}

std::uint64_t TrwDigest(const hs::detect::TrwGatewayObserver& trw) {
  hs::trace::Fingerprint fingerprint;
  fingerprint.MixDouble(trw.first_alert_time().value_or(-1.0));
  fingerprint.Mix(trw.probes_seen());
  fingerprint.Mix(trw.probes_fed());
  fingerprint.Mix(trw.detector().flagged_scanners());
  fingerprint.Mix(trw.detector().cleared_benign());
  return fingerprint.hash;
}

std::unique_ptr<hs::detect::TrwGatewayObserver> MakeTrw(
    const hs::core::Scenario& scenario) {
  std::vector<std::uint32_t> slash24s(scenario.occupied_slash24s.begin(),
                                      scenario.occupied_slash24s.end());
  std::sort(slash24s.begin(), slash24s.end());
  hs::net::IntervalSet live;
  for (const std::uint32_t s24 : slash24s) {
    live.Add(s24 << 8, (s24 << 8) | 0xFFu);
  }
  live.Build();
  return std::make_unique<hs::detect::TrwGatewayObserver>(std::move(live));
}

// ---------------------------------------------------------------------------
// Stream-driven layer suite

void ReportStreamLayers(const StreamContext& context, Report& report) {
  const auto stream = context.stream;
  ReportEngineLayers(
      MeasureEngineLayers(stream, context.scenario.population, context.worm,
                          context.reachability,
                          hs::fault::ParseFaultSpec(kStudyFaultSpec),
                          context.seed),
      report);
  ReportTraceLayers(MeasureTraceLayers(stream), report);

  {
    hs::telescope::Telescope fleet = context.make_fleet();
    TimedFold timed{fleet};
    (void)FoldNsPerEvent(timed, stream);
    ReportFoldStats(timed.stats(), report);
    std::uint64_t recorded = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      recorded += fleet.sensor(static_cast<int>(i)).probe_count();
    }
    report.Metric("telescope.sensor_hit_ratio",
                  static_cast<double>(recorded) /
                      static_cast<double>(std::max<std::size_t>(1, stream.size())),
                  "ratio");
  }
  {
    auto trw = MakeTrw(context.scenario);
    report.Metric("detect.trw.fold_ns_per_event", FoldNsPerEvent(*trw, stream),
                  "ns");
  }
  {
    // Prevalence's dispersion sets only grow, so its cost depends on how
    // far into the stream it is; a bounded prefix keeps the run short.
    constexpr std::size_t kPrevalenceEvents = 1'000'000;
    hs::detect::PrevalenceStreamObserver prevalence;
    report.Metric("detect.prevalence.fold_ns_per_event",
                  FoldNsPerEvent(prevalence,
                                 stream.first(std::min(kPrevalenceEvents,
                                                       stream.size()))),
                  "ns");
  }
  {
    MemFile file{"perfbench-serve"};
    {
      hs::trace::TraceWriter writer{file.path(), {}};
      writer.OnAttach();
      writer.OnProbeBatch(stream);
      writer.Finish();
    }
    const hs::serve::CorpusIndex corpus{file.path()};
    hs::telescope::Telescope fleet = context.make_fleet();
    auto trw = MakeTrw(context.scenario);
    hs::sim::TeeObserver tee{&fleet, trw.get()};
    tee.OnAttach();
    TimedFold timed{tee};
    const ServeResult served = ServeCorpus(corpus, timed, kServeConnections);
    // Fold-thread busy time over the load's first connect → last ACK, and
    // the median FIN → ACK lag.
    report.Metric("serve.fold_busy_ratio",
                  timed.stats().BusyNs() * 1e-9 /
                      std::max(served.load.wall_seconds, 1e-9),
                  "ratio");
    report.Metric("serve.ack_lag_s", Median(served.load.ack_latency_seconds),
                  "s");
  }
}

// ---------------------------------------------------------------------------
// Per-layer metric reporting

void ReportEngineLayers(const EngineLayers& layers, Report& report) {
  report.Metric("worms.next_target_ns", layers.next_target_ns, "ns");
  report.Metric("topology.decide_ns", layers.decide_ns, "ns");
  report.Metric("topology.delivered_ratio", layers.delivered_ratio, "ratio");
  report.Metric("sim.find_victim_ns", layers.find_victim_ns, "ns");
  report.Metric("sim.victim_hit_ratio", layers.victim_hit_ratio, "ratio");
  report.Metric("fault.verdict_ns", layers.fault_verdict_ns, "ns");
  report.Metric("fault.drop_ratio", layers.fault_drop_ratio, "ratio");
}

void ReportFoldStats(const TimedFold::Stats& stats, Report& report) {
  const double events = static_cast<double>(std::max<std::uint64_t>(1, stats.events));
  const double steps = static_cast<double>(std::max<std::uint64_t>(1, stats.steps));
  report.Metric("telescope.fold_ns_per_event",
                static_cast<double>(stats.fold_ns) / events, "ns");
  report.Metric("telescope.merge_ns_per_step",
                static_cast<double>(stats.merge_ns) / steps, "ns");
  report.Metric("sim.steps", static_cast<double>(stats.steps), "count");
  report.Metric("sim.fanout_step_ratio",
                static_cast<double>(stats.fanned_steps) / steps, "ratio");
  report.Metric("sim.shard_imbalance", stats.Imbalance(), "ratio");
  report.Metric("sim.serial_s", stats.serial_s, "s");
}

void ReportTraceLayers(const TraceLayers& layers, Report& report) {
  report.Metric("trace.encode_ns_per_record", layers.encode_ns_per_record,
                "ns");
  report.Metric("trace.bytes_per_record", layers.bytes_per_record, "B");
  report.Metric("trace.decode_ns_per_record", layers.decode_ns_per_record,
                "ns");
}

void ReportTraceOverhead(const std::vector<double>& untraced_seconds,
                         const std::vector<double>& traced_seconds,
                         Report& report) {
  std::vector<double> ratios;
  for (std::size_t i = 0;
       i < untraced_seconds.size() && i < traced_seconds.size(); ++i) {
    ratios.push_back(traced_seconds[i] / untraced_seconds[i]);
  }
  report.Metric("obs.trace_overhead_pct", 100.0 * (Median(ratios) - 1.0), "%");
}

}  // namespace perfbench
