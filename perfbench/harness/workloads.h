// The benchmark's three workloads (see perfbench/README.md for why each
// was chosen and which layers it stresses).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "layers.h"
#include "report.h"
#include "telescope/telescope.h"
#include "topology/filtering.h"
#include "topology/reachability.h"
#include "worms/hitlist.h"

namespace perfbench {

/// The workload seed every workload uses when none is given.  At this seed
/// and full size the outbreak reproduces micro_hotpath's end-to-end run
/// (engine seed 0xBEEF), whose fingerprint is pinned.
inline constexpr std::uint64_t kDefaultSeed = 0xBEEF;

/// The study's fault schedule; the other workloads drive their fault
/// verdict layer with it too, over their own delivered probes.
inline constexpr const char* kStudyFaultSpec = "seed:7;loss:0.02;dup:0.01";

struct RunOptions {
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a smoke-test size (seconds, not minutes).
  bool tiny = false;
};

/// micro_hotpath's end-to-end fixture at `scale`: the fig5a clustered
/// population with 15% NATted hosts, a 1000-/16 greedy hit-list, one /24
/// darknet per populated /16 tracking per-/24 counts and unique sources,
/// and three upstream ACLs.  Heap-only: the reachability model points
/// into the NAT directory and ACL set.
struct OutbreakFixture {
  hotspots::core::Scenario scenario;
  hotspots::core::HitListSelection selection;
  std::unique_ptr<hotspots::worms::HitListWorm> worm;
  std::vector<hotspots::net::Prefix> sensor_blocks;
  hotspots::telescope::SensorOptions sensor_options;
  hotspots::topology::IngressAclSet acls;
  std::unique_ptr<hotspots::topology::Reachability> reachability;

  [[nodiscard]] hotspots::telescope::Telescope MakeFleet() const;
};
[[nodiscard]] std::unique_ptr<OutbreakFixture> BuildOutbreakFixture(
    double scale);

/// One micro_hotpath outbreak on 2 shards with the fleet wrapped in a
/// TimedFold: the shard fork-join layer for traced runs of workloads that
/// never fan out.
[[nodiscard]] TimedFold::Stats MeasureOutbreakShards(std::uint64_t seed,
                                                     bool tiny);

/// Each fills `report` (end-to-end metrics, or per-layer ones when
/// options.trace) and prints human-readable detail and provenance.
void RunOutbreak(const RunOptions& options, Report& report);
void RunStudy(const RunOptions& options, Report& report);
void RunIngest(const RunOptions& options, Report& report);

/// Repetition policy shared by the workloads: run at least `min_reps`, then
/// keep going while another repetition (estimated at the duration of the
/// last one) still ends within the run's `seconds`.
[[nodiscard]] inline bool AnotherRep(std::size_t done, std::size_t min_reps,
                                     double elapsed, double last_rep,
                                     double seconds) {
  return done < min_reps || elapsed + last_rep <= seconds;
}

/// Seconds one call of `setup` takes.  Workloads set up several times per
/// run and report the median as setup_s: one short set-up is at the mercy
/// of whatever the machine is doing at that moment.
template <typename Setup>
double TimeSetup(Setup&& setup) {
  const auto t0 = Clock::now();
  setup();
  return SecondsBetween(t0, Clock::now());
}

}  // namespace perfbench
