// Workload `outbreak`: micro_hotpath's end-to-end configuration (scale
// 1.0, 4,293 tracking sensors, three ACLs, 1000-/16 hit-list, 20 M-probe
// cap) on 2 engine shards, repeated after a warm-up.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>

#include "core/scenario.h"
#include "layers.h"
#include "prng/xoshiro.h"
#include "sim/engine.h"
#include "trace/format.h"
#include "workloads.h"

namespace perfbench {

namespace hs = hotspots;

hs::telescope::Telescope OutbreakFixture::MakeFleet() const {
  hs::telescope::Telescope fleet{sensor_options};
  int id = 0;
  for (const auto& block : sensor_blocks) {
    fleet.AddSensor("S" + std::to_string(id++), block);
  }
  fleet.Build();
  return fleet;
}

std::unique_ptr<OutbreakFixture> BuildOutbreakFixture(double scale) {
  auto fixture = std::make_unique<OutbreakFixture>();
  hs::core::ScenarioBuilder builder;
  hs::core::ClusteredPopulationConfig config;
  config.total_hosts = static_cast<std::uint32_t>(134'586 * scale) + 1000;
  config.nonempty_slash16s = std::max(200, static_cast<int>(4481 * scale));
  config.slash8_clusters = 47;
  config.nat_fraction = 0.15;
  config.nat_site_mode = hs::core::NatSiteMode::kSharedSite;
  config.seed = 0xF16B;
  fixture->scenario = builder.BuildClustered(config);
  fixture->selection = hs::core::GreedyHitList(fixture->scenario, 1000);
  fixture->worm =
      std::make_unique<hs::worms::HitListWorm>(fixture->selection.prefixes);

  // One /24 darknet in every populated /16, placed exactly as
  // micro_hotpath places them (its fingerprint depends on it).
  hs::prng::Xoshiro256 placement_rng{0x5E45u};
  for (const auto& cluster : fixture->scenario.slash16_clusters) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::uint32_t s24 = (cluster.prefix.first().value() >> 8) |
                                placement_rng.UniformBelow(256);
      if (fixture->scenario.occupied_slash24s.count(s24) != 0) continue;
      fixture->sensor_blocks.push_back(
          hs::net::Prefix{hs::net::Ipv4{s24 << 8}, 24});
      break;
    }
  }
  fixture->sensor_options.track_unique_sources = true;
  fixture->sensor_options.track_per_slash24 = true;
  fixture->sensor_options.alert_threshold = 5;

  const auto& prefixes = fixture->selection.prefixes;
  if (prefixes.size() > 11) {
    fixture->acls.Block(hs::net::Prefix{prefixes[2].first(), 16});
    fixture->acls.Block(hs::net::Prefix{prefixes[7].first(), 16});
    fixture->acls.Block(hs::net::Prefix{prefixes[11].first(), 22});
  }
  fixture->acls.Build();
  fixture->reachability = std::make_unique<hs::topology::Reachability>(
      nullptr, &fixture->scenario.nats, &fixture->acls, 0.001);
  return fixture;
}

namespace {

/// micro_hotpath's pinned end-to-end fingerprint at scale 1.0, engine seed
/// 0xBEEF — identical at any shard count.
constexpr std::uint64_t kPinnedFingerprint = 0xa61f6298509ab9ecULL;
constexpr int kShards = 2;

struct Rep {
  std::uint64_t probes = 0;
  double seconds = 0.0;
  /// Per-rep set-up a trial pays: population copy, fleet, engine, seeds.
  double trial_setup_seconds = 0.0;
  std::uint64_t fingerprint = 0;
  bool conserved = false;
  std::size_t alerted = 0;
  std::uint64_t recorded = 0;  ///< Probes the fleet's sensors recorded.
};

hs::sim::EngineConfig EngineConfigFor(const OutbreakFixture& fixture,
                                      std::uint64_t seed, bool tiny,
                                      int shards) {
  hs::sim::EngineConfig config;
  config.scan_rate = 10.0;
  config.end_time = 2500.0;
  config.sample_interval = 25.0;
  config.seed = seed;
  config.stop_at_infected_fraction = 0.995 * fixture.selection.coverage;
  config.max_probes = tiny ? 400'000 : 20'000'000;
  config.shards = shards;
  return config;
}

/// micro_hotpath's end-to-end fingerprint: the run's series, delivery
/// counts and totals, and every sensor's counts, alert and histogram.
std::uint64_t Fingerprint(const hs::sim::RunResult& result,
                          const hs::telescope::Telescope& fleet) {
  hs::trace::Fingerprint fingerprint;
  for (const auto& point : result.series) {
    fingerprint.MixDouble(point.time);
    fingerprint.Mix(point.infected);
    fingerprint.Mix(point.probes);
  }
  for (const std::uint64_t count : result.delivery_counts) {
    fingerprint.Mix(count);
  }
  fingerprint.Mix(result.total_probes);
  fingerprint.Mix(result.final_infected);
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

/// One outbreak.  With `timed_fold` the fleet is wrapped in a TimedFold
/// (and spans go to `spans`); with `capture` a StrideCapture rides along.
Rep RunOnce(const OutbreakFixture& fixture,
            const hs::sim::EngineConfig& config,
            TimedFold::Stats* timed_fold = nullptr,
            SpanRecorder* spans = nullptr, StrideCapture* capture = nullptr) {
  Rep rep;
  const auto s0 = Clock::now();
  hs::sim::Population population = fixture.scenario.population;
  hs::telescope::Telescope fleet = fixture.MakeFleet();
  hs::sim::Engine engine{population, *fixture.worm, *fixture.reachability,
                         &fixture.scenario.nats, config};
  engine.SeedRandomInfections(25);
  rep.trial_setup_seconds = SecondsBetween(s0, Clock::now());

  const int run_span =
      spans != nullptr ? spans->Add(Span{"engine.run", -1, NowNs(), NowNs()})
                       : -1;
  std::optional<TimedFold> timed;
  hs::sim::ProbeObserver* fold = &fleet;
  if (timed_fold != nullptr) fold = &timed.emplace(fleet, spans, run_span);
  hs::sim::TeeObserver tee{fold, capture};
  hs::sim::ProbeObserver& observer =
      capture != nullptr ? static_cast<hs::sim::ProbeObserver&>(tee) : *fold;

  const auto t0 = Clock::now();
  const hs::sim::RunResult result = engine.Run(observer);
  rep.seconds = SecondsBetween(t0, Clock::now());
  if (spans != nullptr) spans->Close(run_span, NowNs());

  if (timed_fold != nullptr) timed_fold->Add(timed->stats());
  rep.probes = result.total_probes;
  rep.fingerprint = Fingerprint(result, fleet);
  rep.conserved = hs::sim::EngineAudit::ConservationHolds(result);
  rep.alerted = fleet.AlertedCount();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    rep.recorded += fleet.sensor(static_cast<int>(i)).probe_count();
  }
  return rep;
}

std::string Hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof text, "%016" PRIx64, value);
  return text;
}

}  // namespace

TimedFold::Stats MeasureOutbreakShards(std::uint64_t seed, bool tiny) {
  const auto fixture = BuildOutbreakFixture(tiny ? 0.02 : 1.0);
  TimedFold::Stats stats;
  (void)RunOnce(*fixture, EngineConfigFor(*fixture, seed, tiny, kShards),
                &stats);
  return stats;
}

void RunOutbreak(const RunOptions& options, Report& report) {
  const double scale = options.tiny ? 0.02 : 1.0;

  std::unique_ptr<OutbreakFixture> fixture;
  std::vector<double> setup_times;
  for (int i = 0; i < 3; ++i) {
    setup_times.push_back(TimeSetup([&] {
      fixture.reset();
      fixture = BuildOutbreakFixture(scale);
    }));
  }
  std::printf("outbreak: %u public + %u NATted hosts, %zu sensors, hit-list "
              "coverage %.2f%%, scale %.2f, %d shards, seed %" PRIu64 "\n",
              fixture->scenario.public_hosts, fixture->scenario.natted_hosts,
              fixture->sensor_blocks.size(),
              100.0 * fixture->selection.coverage, scale, kShards,
              options.seed);

  const hs::sim::EngineConfig config =
      EngineConfigFor(*fixture, options.seed, options.tiny, kShards);
  const Rep warm = RunOnce(*fixture, config);  // Pages in and warms caches.

  // Timed repetitions.  A traced run alternates untraced and traced reps so
  // the tracing overhead is measured under the same machine conditions.
  std::vector<Rep> reps;
  std::vector<Rep> traced_reps;
  TimedFold::Stats fold_stats;
  SpanRecorder spans;
  const auto start = Clock::now();
  double last_rep = 0.0;
  while (AnotherRep(reps.size(), 3, SecondsBetween(start, Clock::now()),
                    last_rep, options.seconds)) {
    const auto r0 = Clock::now();
    reps.push_back(RunOnce(*fixture, config));
    if (options.trace) {
      spans = SpanRecorder{};
      traced_reps.push_back(RunOnce(*fixture, config, &fold_stats, &spans));
    }
    // One more complete set-up per repetition spreads the setup_s sample
    // over the whole run instead of its first moment.
    setup_times.push_back(TimeSetup([&] { (void)BuildOutbreakFixture(scale); }));
    last_rep = SecondsBetween(r0, Clock::now());
  }

  // Correctness: every rep reproduces the warm-up's answer, conserves
  // probes, matches a 1-shard reference run (shard-count invariance), and
  // at the default seed matches micro_hotpath's pinned fingerprint.
  const Rep reference =
      RunOnce(*fixture, EngineConfigFor(*fixture, options.seed, options.tiny, 1));
  std::vector<const Rep*> all{&warm, &reference};
  for (const Rep& rep : reps) all.push_back(&rep);
  for (const Rep& rep : traced_reps) all.push_back(&rep);
  for (const Rep* rep : all) {
    if (rep->fingerprint != warm.fingerprint) {
      report.Fail("outbreak fingerprint " + Hex(rep->fingerprint) +
                  " differs from " + Hex(warm.fingerprint) +
                  " (repetitions or shard counts disagree)");
    }
    if (!rep->conserved) report.Fail("outbreak probe conservation violated");
  }
  if (options.seed == kDefaultSeed && !options.tiny &&
      warm.fingerprint != kPinnedFingerprint) {
    report.Fail("outbreak fingerprint " + Hex(warm.fingerprint) +
                " is not the pinned " + Hex(kPinnedFingerprint));
  }
  std::printf("outbreak: %zu reps of %" PRIu64 " probes, %zu/%zu sensors "
              "alerted, fingerprint %s (1-shard reference %s)\n",
              reps.size(), warm.probes, warm.alerted,
              fixture->sensor_blocks.size(), Hex(warm.fingerprint).c_str(),
              Hex(reference.fingerprint).c_str());

  std::vector<double> rates;
  std::vector<double> walls;
  std::vector<double> trial_setups;
  for (const Rep& rep : reps) {
    rates.push_back(static_cast<double>(rep.probes) / rep.seconds);
    walls.push_back(rep.seconds);
    trial_setups.push_back(rep.trial_setup_seconds);
  }
  PrintSpread("outbreak rep wall_s", walls);
  PrintSpread("outbreak setup_s", setup_times);
  report.set_attempted(reps.size());
  PrintProvenance(Provenance{"outbreak", options.seed,
                             static_cast<int>(reps.size()),
                             static_cast<int>(setup_times.size()), kShards,
                             options.tiny ? "tiny" : "full"});

  if (!options.trace) {
    report.Metric("probes_per_s", Median(rates), "1/s");
    report.Metric("wall_s", Median(walls), "s");
    report.Metric("setup_s", Median(setup_times), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // ---- Traced run: per-layer metrics ------------------------------------
  StrideCapture capture{options.tiny ? 1u : 8u, 2'500'000};
  (void)RunOnce(*fixture, config, nullptr, nullptr, &capture);
  ReportStreamLayers(
      StreamContext{capture.events(), fixture->scenario, *fixture->worm,
                    *fixture->reachability, [&] { return fixture->MakeFleet(); },
                    options.seed},
      report);
  // In place: the fleet fold as the engine's shard workers run it.
  const TimedFold::Stats per_rep = fold_stats.PerRun(traced_reps.size());
  ReportFoldStats(per_rep, report);
  std::uint64_t recorded = 0;
  for (const Rep& rep : traced_reps) recorded += rep.recorded;
  report.Metric("telescope.sensor_hit_ratio",
                static_cast<double>(recorded) /
                    static_cast<double>(std::max<std::uint64_t>(1, fold_stats.events)),
                "ratio");
  std::vector<double> traced_walls;
  for (const Rep& rep : traced_reps) traced_walls.push_back(rep.seconds);
  ReportTraceOverhead(walls, traced_walls, report);
  const double wall = Median(walls);
  report.Metric("sim.study.trial_s_p50", wall, "s");
  report.Metric("sim.study.trial_s_max",
                *std::max_element(walls.begin(), walls.end()), "s");
  report.Metric("sim.study.tail_idle_s", 0.0, "s");
  report.Metric("core.trial_setup_s", Median(trial_setups), "s");

  // Reconciliation: per-probe layer costs (single-thread ns) against the
  // 1-shard reference and the 2-shard wall, both in ns per probe.
  const auto& m = report.metrics();
  const double probes = static_cast<double>(warm.probes);
  const double fold_ns = static_cast<double>(per_rep.fold_ns) / probes;
  const double merge_ns = static_cast<double>(per_rep.merge_ns) / probes;
  const double victim_ns = m.at("sim.find_victim_ns").first *
                           m.at("topology.delivered_ratio").first;
  const double layers_ns = m.at("worms.next_target_ns").first +
                           m.at("topology.decide_ns").first + victim_ns +
                           fold_ns + merge_ns;
  const double ref_ns = reference.seconds * 1e9 /
                        static_cast<double>(reference.probes);
  const double wall_ns = wall * 1e9 / probes;
  const double engine_self_ns =
      static_cast<double>(spans.TotalSelfNs("engine.run")) / probes;
  std::printf("reconcile: layers %.2f ns/probe (targeting %.2f + decide "
              "%.2f + victim %.2f + fold %.2f + merge %.2f) vs 1-shard "
              "end-to-end %.2f ns/probe (%.1f%%); %d-shard wall %.2f "
              "ns/probe, engine self time outside fold+merge %.2f "
              "ns/probe\n",
              layers_ns, m.at("worms.next_target_ns").first,
              m.at("topology.decide_ns").first, victim_ns, fold_ns, merge_ns,
              ref_ns, 100.0 * layers_ns / ref_ns, kShards, wall_ns,
              engine_self_ns);
}

}  // namespace perfbench
