// Workload `study`: fig5b's Monte-Carlo detection study through
// core::RunDetectionStudyMonteCarlo — scale 0.1 (14,458 hosts, 448
// sensors), the full hit-list, 4 trials on 2 trial threads, serial
// engines, fault schedule kStudyFaultSpec.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/detection_study.h"
#include "core/placement.h"
#include "fault/delivery.h"
#include "fault/inject.h"
#include "layers.h"
#include "sim/engine.h"
#include "telescope/ims.h"
#include "trace/format.h"
#include "workloads.h"

namespace perfbench {

namespace hs = hotspots;

namespace {

/// Aggregate digest of the full-size study at the default seed.  It is a
/// pure function of (scenario, master seed): the same at 1, 2 and 4 trial
/// threads.
constexpr std::uint64_t kPinnedStudyDigest = 0x9fe5ba8ccfdb56abULL;

constexpr int kThreads = 2;

struct StudyFixture {
  hs::core::Scenario scenario;
  std::vector<hs::net::Prefix> sensors;
  hs::core::HitListSelection selection;
  std::unique_ptr<hs::worms::HitListWorm> worm;
  hs::fault::FaultSchedule faults;
};

std::unique_ptr<StudyFixture> BuildStudyFixture(double scale) {
  auto fixture = std::make_unique<StudyFixture>();
  hs::core::ScenarioBuilder builder;
  for (const auto& block : hs::telescope::ImsBlocks()) {
    builder.Avoid(block.block);
  }
  hs::core::ClusteredPopulationConfig config;
  config.total_hosts = static_cast<std::uint32_t>(134'586 * scale) + 1000;
  config.nonempty_slash16s = std::max(200, static_cast<int>(4481 * scale));
  config.slash8_clusters = 47;
  config.seed = 0xF16B;
  fixture->scenario = builder.BuildClustered(config);
  hs::prng::Xoshiro256 placement_rng{0x5E45u};
  fixture->sensors =
      hs::core::PlaceSensorPerCluster16(fixture->scenario, placement_rng);
  fixture->selection = hs::core::GreedyHitList(fixture->scenario, 1000);
  fixture->worm =
      std::make_unique<hs::worms::HitListWorm>(fixture->selection.prefixes);
  fixture->faults = hs::fault::ParseFaultSpec(kStudyFaultSpec);
  return fixture;
}

std::uint64_t TrialDigest(const hs::core::DetectionOutcome& trial) {
  hs::trace::Fingerprint fingerprint;
  for (const auto& point : trial.run.series) {
    fingerprint.MixDouble(point.time);
    fingerprint.Mix(point.infected);
    fingerprint.Mix(point.probes);
  }
  for (const std::uint64_t count : trial.run.delivery_counts) {
    fingerprint.Mix(count);
  }
  fingerprint.Mix(trial.run.total_probes);
  fingerprint.Mix(trial.run.final_infected);
  fingerprint.Mix(trial.run.fault_injected_drops);
  fingerprint.Mix(trial.run.fault_duplicates);
  fingerprint.Mix(trial.alerted_sensors);
  fingerprint.Mix(trial.outage_missed_probes);
  for (const double time : trial.alert_times) fingerprint.MixDouble(time);
  return fingerprint.hash;
}

struct Rep {
  double seconds = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> trial_digests;
  std::vector<double> trial_seconds;
  /// Idle trial-thread time at the end of the study (see TailIdle).
  double tail_idle_s = 0.0;
  bool conserved = true;
  int lost_trials = 0;
};

/// Idle time of the study's threads after their last trial: each of the
/// `threads` latest-finishing trials leaves its thread idle from its end
/// to the study's end.
double TailIdle(const hs::sim::StudyTelemetry& telemetry, int threads) {
  std::vector<double> ends;
  for (std::size_t i = 0; i < telemetry.trial_wall_seconds.size(); ++i) {
    ends.push_back(telemetry.trial_queue_wait_seconds[i] +
                   telemetry.trial_wall_seconds[i]);
  }
  std::sort(ends.rbegin(), ends.rend());
  double idle = 0.0;
  for (std::size_t i = 0; i < ends.size() && i < static_cast<std::size_t>(threads);
       ++i) {
    idle += std::max(0.0, telemetry.wall_seconds - ends[i]);
  }
  return idle;
}

Rep RunStudyOnce(const StudyFixture& fixture,
                 const hs::core::MonteCarloStudyConfig& config) {
  Rep rep;
  const auto t0 = Clock::now();
  const hs::core::MonteCarloDetectionSummary summary =
      hs::core::RunDetectionStudyMonteCarlo(fixture.scenario, *fixture.worm,
                                            fixture.sensors, config);
  rep.seconds = SecondsBetween(t0, Clock::now());
  rep.probes = summary.total_probes;
  rep.lost_trials = summary.lost_trials;
  hs::trace::Fingerprint aggregate;
  for (const auto& trial : summary.trials) {
    rep.trial_digests.push_back(TrialDigest(trial));
    aggregate.Mix(rep.trial_digests.back());
    rep.conserved =
        rep.conserved && hs::sim::EngineAudit::ConservationHolds(trial.run);
  }
  aggregate.Mix(summary.total_probes);
  aggregate.MixDouble(summary.alerted_fraction.mean);
  aggregate.MixDouble(summary.infected_fraction.mean);
  rep.digest = aggregate.hash;
  rep.trial_seconds = summary.telemetry.trial_wall_seconds;
  rep.tail_idle_s = TailIdle(summary.telemetry, config.threads);
  return rep;
}

std::string Hex(std::uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof text, "%016" PRIx64, value);
  return text;
}

}  // namespace

void RunStudy(const RunOptions& options, Report& report) {
  const double scale = options.tiny ? 0.02 : 0.1;

  // The set-up takes milliseconds, so it is repeated in batches: one
  // before the timed work and one after every repetition.
  constexpr int kSetupBatch = 10;
  std::vector<double> setup_times;
  const auto setup_batch = [&] {
    for (int i = 0; i < kSetupBatch; ++i) {
      setup_times.push_back(TimeSetup([&] { (void)BuildStudyFixture(scale); }));
    }
  };
  std::unique_ptr<StudyFixture> fixture;
  setup_times.push_back(TimeSetup([&] { fixture = BuildStudyFixture(scale); }));
  setup_batch();

  hs::core::MonteCarloStudyConfig config;
  config.trials = options.tiny ? 2 : 4;
  config.threads = kThreads;
  config.master_seed = options.seed;
  config.label = "perfbench";
  config.study.engine.scan_rate = 10.0;
  config.study.engine.end_time = 2500.0;
  config.study.engine.sample_interval = 25.0;
  config.study.engine.stop_at_infected_fraction =
      0.995 * fixture->selection.coverage;
  if (options.tiny) config.study.engine.max_probes = 2'000'000;
  config.study.alert_threshold = 5;
  config.study.seed_infections = 25;
  config.study.faults = &fixture->faults;
  std::printf("study: %u hosts, %zu sensors, hit-list coverage %.2f%%, "
              "%d trials on %d threads, faults \"%s\", seed %" PRIu64 "\n",
              fixture->scenario.public_hosts, fixture->sensors.size(),
              100.0 * fixture->selection.coverage, config.trials,
              config.threads, kStudyFaultSpec, options.seed);

  // Warm-up, and the thread-count reference: trial 0 alone on one thread
  // must reproduce trial 0 of every two-thread study.
  hs::core::MonteCarloStudyConfig single = config;
  single.trials = 1;
  single.threads = 1;
  const Rep reference = RunStudyOnce(*fixture, single);

  std::vector<Rep> reps;
  std::vector<Rep> traced_reps;
  const auto start = Clock::now();
  double last_rep = 0.0;
  while (AnotherRep(reps.size(), options.trace ? 1 : 2,
                    SecondsBetween(start, Clock::now()), last_rep,
                    options.seconds)) {
    const auto r0 = Clock::now();
    reps.push_back(RunStudyOnce(*fixture, config));
    // Nothing inside the study can be wrapped from outside, so a traced
    // rep is the same call; the pair measures what tracing leaves behind.
    if (options.trace) traced_reps.push_back(RunStudyOnce(*fixture, config));
    last_rep = SecondsBetween(r0, Clock::now());
    setup_batch();
  }

  std::vector<const Rep*> all;
  for (const Rep& rep : reps) all.push_back(&rep);
  for (const Rep& rep : traced_reps) all.push_back(&rep);
  for (const Rep* rep : all) {
    if (rep->digest != reps.front().digest) {
      report.Fail("study digest " + Hex(rep->digest) + " differs from " +
                  Hex(reps.front().digest) + " across repetitions");
    }
    if (rep->trial_digests.front() != reference.trial_digests.front()) {
      report.Fail("study trial 0 on " + std::to_string(kThreads) +
                  " threads differs from the 1-thread reference");
    }
    if (!rep->conserved) report.Fail("study probe conservation violated");
    if (rep->lost_trials != 0) report.Fail("study lost trials");
  }
  if (options.seed == kDefaultSeed && !options.tiny &&
      reps.front().digest != kPinnedStudyDigest) {
    report.Fail("study digest " + Hex(reps.front().digest) +
                " is not the pinned " + Hex(kPinnedStudyDigest));
  }
  std::printf("study: %zu reps of %" PRIu64 " probes, digest %s\n",
              reps.size(), reps.front().probes,
              Hex(reps.front().digest).c_str());

  std::vector<double> rates;
  std::vector<double> walls;
  for (const Rep& rep : reps) {
    rates.push_back(static_cast<double>(rep.probes) / rep.seconds);
    walls.push_back(rep.seconds);
  }
  PrintSpread("study rep wall_s", walls);
  PrintSpread("study setup_s", setup_times);
  report.set_attempted(reps.size());
  PrintProvenance(Provenance{"study", options.seed,
                             static_cast<int>(reps.size()),
                             static_cast<int>(setup_times.size()), kThreads,
                             options.tiny ? "tiny" : "full"});

  if (!options.trace) {
    report.Metric("probes_per_s", Median(rates), "1/s");
    report.Metric("wall_s", Median(walls), "s");
    report.Metric("setup_s", Median(setup_times), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // ---- Traced run: re-run trial 0 with the study's own wiring -----------
  // (core::RunDetectionStudy, call for call) and the fleet wrapped, timing
  // the per-trial set-up it pays.
  const std::uint64_t trial_seed =
      hs::sim::TrialSeeds(config.master_seed, 1).front();
  const auto s0 = Clock::now();
  hs::core::Scenario scenario = fixture->scenario;
  scenario.population.ResetAllToVulnerable();
  hs::telescope::Telescope fleet = hs::core::MakeAlertingTelescope(
      fixture->sensors, config.study.alert_threshold);
  fleet.SetThreatRequiresHandshake(fixture->worm->requires_handshake());
  hs::fault::ApplySensorOutages(fixture->faults, fleet);
  std::optional<hs::fault::DeliveryFaults> faults;
  if (fixture->faults.HasDeliveryFaults()) faults.emplace(fixture->faults);
  const hs::topology::NatDirectory* nats =
      scenario.nats.size() > 0 ? &scenario.nats : nullptr;
  const hs::topology::Reachability reachability{nullptr, nats, nullptr, 0.0};
  hs::sim::EngineConfig engine_config = config.study.engine;
  engine_config.seed = trial_seed;
  hs::sim::Engine engine{scenario.population, *fixture->worm, reachability,
                         nats, engine_config};
  if (faults) engine.SetDeliveryFaults(&*faults);
  engine.SeedRandomInfections(config.study.seed_infections);
  const double trial_setup_s = SecondsBetween(s0, Clock::now());

  TimedFold timed{fleet};
  StrideCapture capture{options.tiny ? 1u : 64u, 2'500'000};
  hs::sim::TeeObserver tee{&timed, &capture};
  const hs::sim::RunResult result = engine.Run(tee);
  if (result.total_probes != reference.probes) {
    report.Fail("study trial 0 re-run emitted " +
                std::to_string(result.total_probes) + " probes, the study " +
                std::to_string(reference.probes));
  }

  ReportStreamLayers(
      StreamContext{capture.events(), fixture->scenario, *fixture->worm,
                    reachability,
                    [&] {
                      return hs::core::MakeAlertingTelescope(
                          fixture->sensors, config.study.alert_threshold);
                    },
                    options.seed},
      report);
  // In place: the plain fleet's fold on the trial's serial engine.
  ReportFoldStats(timed.stats(), report);
  std::uint64_t recorded = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    recorded += fleet.sensor(static_cast<int>(i)).probe_count();
  }
  report.Metric("telescope.sensor_hit_ratio",
                static_cast<double>(recorded) /
                    static_cast<double>(std::max<std::uint64_t>(1, timed.stats().events)),
                "ratio");

  std::vector<double> trial_seconds;
  std::vector<double> tail_idle;
  for (const Rep& rep : reps) {
    trial_seconds.insert(trial_seconds.end(), rep.trial_seconds.begin(),
                         rep.trial_seconds.end());
    tail_idle.push_back(rep.tail_idle_s);
  }
  std::vector<double> traced_walls;
  for (const Rep& rep : traced_reps) traced_walls.push_back(rep.seconds);
  report.Metric("sim.study.trial_s_p50", Median(trial_seconds), "s");
  report.Metric("sim.study.trial_s_max",
                *std::max_element(trial_seconds.begin(), trial_seconds.end()),
                "s");
  report.Metric("sim.study.tail_idle_s", Median(tail_idle), "s");
  report.Metric("core.trial_setup_s", trial_setup_s, "s");
  ReportTraceOverhead(walls, traced_walls, report);
}

}  // namespace perfbench
