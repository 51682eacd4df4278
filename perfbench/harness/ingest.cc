// Workload `ingest`: an in-process serve::TelescopeServer folding into a
// tee of the fleet telescope and a TRW gateway, fed by serve::RunLoad over
// two loopback connections (closed loop, unthrottled, each load ends at
// the last ACK).  The corpus is captured during set-up with
// trace::TraceWriter from a scale-0.25 outbreak (10 M records) into an
// anonymous in-memory file.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <optional>

#include "layers.h"
#include "sim/engine.h"
#include "trace/replay.h"
#include "trace/stream_decoder.h"
#include "trace/writer.h"
#include "workloads.h"

namespace perfbench {

namespace hs = hotspots;

namespace {

struct Corpus {
  std::unique_ptr<OutbreakFixture> fixture;
  std::unique_ptr<MemFile> file;
  std::unique_ptr<hs::serve::CorpusIndex> index;
};

/// The captured outbreak: at most `max_records` probes on 2 shards.
hs::sim::RunResult RunCaptureOutbreak(const OutbreakFixture& fixture,
                                      std::uint64_t max_records,
                                      std::uint64_t seed,
                                      hs::sim::ProbeObserver& observer) {
  hs::sim::EngineConfig config;
  config.scan_rate = 10.0;
  config.end_time = 2500.0;
  config.sample_interval = 25.0;
  config.seed = seed;
  config.stop_at_infected_fraction = 0.995 * fixture.selection.coverage;
  config.max_probes = max_records;
  config.shards = 2;
  hs::sim::Population population = fixture.scenario.population;
  hs::sim::Engine engine{population, *fixture.worm, *fixture.reachability,
                         &fixture.scenario.nats, config};
  engine.SeedRandomInfections(25);
  return engine.Run(observer);
}

/// Builds the scale-0.25 fixture and captures one outbreak of at most
/// `max_records` probes into a fresh in-memory trace.
Corpus CaptureCorpus(double scale, std::uint64_t max_records,
                     std::uint64_t seed) {
  Corpus corpus;
  corpus.fixture = BuildOutbreakFixture(scale);
  corpus.file = std::make_unique<MemFile>("perfbench-ingest-" +
                                          std::to_string(::getpid()));
  {
    hs::trace::TraceWriterOptions options;
    options.seed = seed;
    hs::trace::TraceWriter writer{corpus.file->path(), options};
    (void)RunCaptureOutbreak(*corpus.fixture, max_records, seed, writer);
    writer.Finish();
  }
  corpus.index = std::make_unique<hs::serve::CorpusIndex>(corpus.file->path());
  return corpus;
}

/// The folded state one session (or the offline replay) leaves behind.
struct FoldState {
  std::uint64_t fleet = 0;
  std::uint64_t trw = 0;
  bool operator==(const FoldState&) const = default;
};

struct Rep {
  double seconds = 0.0;
  double observer_setup_seconds = 0.0;
  std::uint64_t records_sent = 0;
  std::uint64_t records_folded = 0;
  std::uint64_t sequence_gaps = 0;
  FoldState state;
};

struct Traced {
  TimedFold::Stats fleet;
  TimedFold::Stats trw;
  TimedFold::Stats session;
  std::uint64_t recorded = 0;
  std::vector<double> ack_lags;
  double wall = 0.0;
};

Rep ServeOnce(const Corpus& corpus, Traced* traced = nullptr) {
  Rep rep;
  const auto s0 = Clock::now();
  hs::telescope::Telescope fleet = corpus.fixture->MakeFleet();
  auto trw = MakeTrw(corpus.fixture->scenario);
  std::optional<TimedFold> timed_fleet;
  std::optional<TimedFold> timed_trw;
  hs::sim::TeeObserver tee;
  if (traced != nullptr) {
    tee.Add(&timed_fleet.emplace(fleet));
    tee.Add(&timed_trw.emplace(*trw));
  } else {
    tee.Add(&fleet);
    tee.Add(trw.get());
  }
  tee.OnAttach();
  std::optional<TimedFold> session;
  hs::sim::MergeableObserver& observer =
      traced != nullptr ? static_cast<hs::sim::MergeableObserver&>(
                              session.emplace(tee))
                        : *tee.AsMergeable();
  rep.observer_setup_seconds = SecondsBetween(s0, Clock::now());

  const ServeResult served =
      ServeCorpus(*corpus.index, observer, kServeConnections);
  rep.seconds = served.load.wall_seconds;
  rep.records_sent = served.load.records_sent;
  rep.records_folded = served.records_folded;
  rep.sequence_gaps = served.sequence_gaps;
  rep.state = FoldState{FleetDigest(fleet), TrwDigest(*trw)};
  if (traced != nullptr) {
    traced->fleet.Add(timed_fleet->stats());
    traced->trw.Add(timed_trw->stats());
    traced->session.Add(session->stats());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      traced->recorded += fleet.sensor(static_cast<int>(i)).probe_count();
    }
    traced->ack_lags.insert(traced->ack_lags.end(),
                            served.load.ack_latency_seconds.begin(),
                            served.load.ack_latency_seconds.end());
    traced->wall += served.load.wall_seconds;
  }
  return rep;
}

/// Every `stride`-th record of the corpus, decoded.
std::vector<hs::sim::ProbeEvent> SampleCorpus(const hs::serve::CorpusIndex& index,
                                              std::uint64_t stride) {
  std::vector<hs::sim::ProbeEvent> sample;
  hs::trace::StreamDecoder decoder{"perfbench-ingest"};
  decoder.Feed(index.bytes());
  std::uint64_t seen = 0;
  while (true) {
    const auto batch = decoder.NextBatch();
    if (batch.empty()) break;
    for (const hs::sim::ProbeEvent& event : batch) {
      if (seen++ % stride == 0) sample.push_back(event);
    }
  }
  return sample;
}

}  // namespace

void RunIngest(const RunOptions& options, Report& report) {
  const double scale = options.tiny ? 0.02 : 0.25;
  const std::uint64_t max_records = options.tiny ? 200'000 : 10'000'000;
  // Set-ups run in pairs at both ends of the run, so setup_s samples the
  // machine across the run, not in one moment; each frees the previous
  // capture first, so only one corpus is ever resident.
  Corpus corpus;
  std::vector<double> setup_times;
  const auto setup_pair = [&] {
    for (int i = 0; i < 2; ++i) {
      setup_times.push_back(TimeSetup([&] {
        corpus = Corpus{};
        corpus = CaptureCorpus(scale, max_records, options.seed);
      }));
    }
  };
  setup_pair();
  const double corpus_bytes = static_cast<double>(corpus.index->bytes().size());
  const auto records = corpus.index->total_records();
  std::printf("ingest: corpus %" PRIu64 " records in %zu blocks, %.2f "
              "B/record, %u connections, seed %" PRIu64 "\n",
              records, corpus.index->blocks().size(),
              corpus_bytes / static_cast<double>(records), kServeConnections,
              options.seed);

  const Rep warm = ServeOnce(corpus);
  std::vector<Rep> reps;
  std::vector<Rep> traced_reps;
  Traced traced;
  const auto start = Clock::now();
  double last_rep = 0.0;
  while (AnotherRep(reps.size(), 3, SecondsBetween(start, Clock::now()),
                    last_rep, options.seconds)) {
    const auto r0 = Clock::now();
    reps.push_back(ServeOnce(corpus));
    if (options.trace) traced_reps.push_back(ServeOnce(corpus, &traced));
    last_rep = SecondsBetween(r0, Clock::now());
  }

  // Correctness: every session folds every record it sent with no gaps,
  // into exactly the state an untimed offline replay of the corpus makes.
  FoldState expected;
  {
    hs::telescope::Telescope fleet = corpus.fixture->MakeFleet();
    auto trw = MakeTrw(corpus.fixture->scenario);
    hs::sim::TeeObserver tee{&fleet, trw.get()};
    (void)hs::trace::ReplayFile(corpus.file->path(), tee);
    expected = FoldState{FleetDigest(fleet), TrwDigest(*trw)};
  }
  std::vector<const Rep*> all{&warm};
  for (const Rep& rep : reps) all.push_back(&rep);
  for (const Rep& rep : traced_reps) all.push_back(&rep);
  for (const Rep* rep : all) {
    if (rep->records_sent != records || rep->records_folded != records) {
      report.Fail("ingest sent " + std::to_string(rep->records_sent) +
                  " and folded " + std::to_string(rep->records_folded) +
                  " of " + std::to_string(records) + " records");
    }
    if (rep->sequence_gaps != 0) report.Fail("ingest sequence gaps");
    if (!(rep->state == expected)) {
      report.Fail("ingest fold state differs from the offline replay");
    }
  }
  std::printf("ingest: %zu loads, fold state matches offline replay: %s\n",
              reps.size(), report.correct() ? "yes" : "NO");

  std::vector<double> rates;
  std::vector<double> walls;
  std::vector<double> observer_setups;
  for (const Rep& rep : reps) {
    rates.push_back(static_cast<double>(rep.records_folded) / rep.seconds);
    walls.push_back(rep.seconds);
    observer_setups.push_back(rep.observer_setup_seconds);
  }
  PrintSpread("ingest rep wall_s", walls);
  if (!options.trace) {
    setup_pair();
    PrintSpread("ingest setup_s", setup_times);
  }
  report.set_attempted(reps.size());
  PrintProvenance(Provenance{"ingest", options.seed,
                             static_cast<int>(reps.size()),
                             static_cast<int>(setup_times.size()),
                             static_cast<int>(kServeConnections),
                             options.tiny ? "tiny" : "full"});

  if (!options.trace) {
    report.Metric("probes_per_s", Median(rates), "1/s");
    report.Metric("wall_s", Median(walls), "s");
    report.Metric("setup_s", Median(setup_times), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // ---- Traced run ---------------------------------------------------------
  const std::vector<hs::sim::ProbeEvent> sample =
      SampleCorpus(*corpus.index, options.tiny ? 1 : 4);
  ReportStreamLayers(
      StreamContext{sample, corpus.fixture->scenario, *corpus.fixture->worm,
                    *corpus.fixture->reachability,
                    [&] { return corpus.fixture->MakeFleet(); }, options.seed},
      report);
  // In place: the single fold thread's telescope and TRW folds, the
  // session's busy time, and the capture's real encoded size.
  ReportFoldStats(traced.fleet.PerRun(traced_reps.size()), report);
  report.Metric("telescope.sensor_hit_ratio",
                static_cast<double>(traced.recorded) /
                    static_cast<double>(std::max<std::uint64_t>(1, traced.fleet.events)),
                "ratio");
  report.Metric("detect.trw.fold_ns_per_event",
                traced.trw.BusyNs() /
                    static_cast<double>(std::max<std::uint64_t>(1, traced.trw.events)),
                "ns");
  report.Metric("serve.fold_busy_ratio",
                traced.session.BusyNs() * 1e-9 / traced.wall, "ratio");
  report.Metric("serve.ack_lag_s", Median(traced.ack_lags), "s");
  report.Metric("trace.bytes_per_record",
                corpus_bytes / static_cast<double>(records), "B");
  {
    // The engine's shard fork-join: neither the ingest fold nor the
    // capture's small steps fan out, so it is measured on micro_hotpath's
    // outbreak as the `outbreak` workload runs it.
    const TimedFold::Stats shards =
        MeasureOutbreakShards(options.seed, options.tiny);
    report.Metric("sim.steps", static_cast<double>(shards.steps), "count");
    report.Metric("sim.fanout_step_ratio",
                  static_cast<double>(shards.fanned_steps) /
                      static_cast<double>(std::max<std::uint64_t>(1, shards.steps)),
                  "ratio");
    report.Metric("sim.shard_imbalance", shards.Imbalance(), "ratio");
    report.Metric("sim.serial_s", shards.serial_s, "s");
  }

  std::vector<double> traced_walls;
  for (const Rep& rep : traced_reps) traced_walls.push_back(rep.seconds);
  ReportTraceOverhead(walls, traced_walls, report);
  report.Metric("sim.study.trial_s_p50", Median(walls), "s");
  report.Metric("sim.study.trial_s_max",
                *std::max_element(walls.begin(), walls.end()), "s");
  report.Metric("sim.study.tail_idle_s", 0.0, "s");
  report.Metric("core.trial_setup_s", Median(observer_setups), "s");
}

}  // namespace perfbench
