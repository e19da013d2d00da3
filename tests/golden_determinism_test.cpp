// Golden determinism regression for the event engine.
//
// The engine rewrite (inline callbacks, detached scheduling, pooled
// packets, indexed 4-ary heap) must be invisible to the simulation:
// same (time, seq) firing order, same RNG draws, same packet-level
// outcome bit for bit.  These constants were captured from the seed
// engine (std::function + shared_ptr packets + std::priority_queue)
// running the Figure-5 scenario with seed 42; any engine change that
// alters event order or RNG consumption shifts the event count and the
// per-flow delivery checksum and fails here.
// The timing-wheel tier and batched link transmission must be equally
// invisible: the wheel only re-buckets entries (exact (time, seq) order
// is restored on collection) and a fused completion replays the exact
// event it elides, so every golden scenario must fingerprint
// identically with the tiers on and off (CORELITE_NO_WHEEL /
// CORELITE_NO_BATCH, read at EventQueue/Link construction).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>

#include "scenario/scenario.h"

namespace corelite {
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t checksum = 0;
};

Fingerprint run(scenario::Mechanism mech) {
  auto spec = scenario::fig5_simultaneous_start(mech);
  spec.seed = 42;
  const auto r = scenario::run_paper_scenario(spec);
  Fingerprint fp;
  fp.events = r.events_processed;
  fp.checksum = 1469598103934665603ULL;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto& fs = r.tracker.series(static_cast<net::FlowId>(i));
    const std::uint64_t bytes =
        fs.delivered * static_cast<std::uint64_t>(spec.topology.packet_size.byte_count());
    fp.checksum = fnv1a(fp.checksum, i);
    fp.checksum = fnv1a(fp.checksum, bytes);
    fp.delivered += fs.delivered;
  }
  return fp;
}

TEST(GoldenDeterminism, CoreliteFig5Seed42MatchesSeedEngine) {
  const Fingerprint fp = run(scenario::Mechanism::Corelite);
  EXPECT_EQ(fp.events, 444442u);
  EXPECT_EQ(fp.delivered, 36665u);
  EXPECT_EQ(fp.checksum, 0xfcdc133cb00a346bULL);
}

TEST(GoldenDeterminism, CsfqFig5Seed42MatchesSeedEngine) {
  const Fingerprint fp = run(scenario::Mechanism::Csfq);
  EXPECT_EQ(fp.events, 365906u);
  EXPECT_EQ(fp.delivered, 37264u);
  EXPECT_EQ(fp.checksum, 0x16e58923be532030ULL);
}

TEST(GoldenDeterminism, RepeatedRunsAreBitIdentical) {
  const Fingerprint a = run(scenario::Mechanism::Corelite);
  const Fingerprint b = run(scenario::Mechanism::Corelite);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.checksum, b.checksum);
}

// ---------------------------------------------------------------------------
// Wheel / batch tier equivalence across every golden scenario.

Fingerprint run_spec(scenario::ScenarioSpec spec) {
  spec.seed = 42;
  const auto r = scenario::run_paper_scenario(spec);
  Fingerprint fp;
  fp.events = r.events_processed;
  fp.checksum = 1469598103934665603ULL;
  for (std::size_t i = 1; i <= spec.num_flows; ++i) {
    const auto& fs = r.tracker.series(static_cast<net::FlowId>(i));
    const std::uint64_t bytes =
        fs.delivered * static_cast<std::uint64_t>(spec.topology.packet_size.byte_count());
    fp.checksum = fnv1a(fp.checksum, i);
    fp.checksum = fnv1a(fp.checksum, bytes);
    fp.delivered += fs.delivered;
  }
  return fp;
}

// Both escape hatches are read at construction time (EventQueue for the
// wheel, Link for batching), so flipping the environment between
// run_paper_scenario calls compares fresh engines inside one process.
Fingerprint run_with(scenario::ScenarioSpec spec, bool wheel, bool batch) {
  if (wheel) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  if (batch) {
    unsetenv("CORELITE_NO_BATCH");
  } else {
    setenv("CORELITE_NO_BATCH", "1", 1);
  }
  const Fingerprint fp = run_spec(std::move(spec));
  unsetenv("CORELITE_NO_WHEEL");
  unsetenv("CORELITE_NO_BATCH");
  return fp;
}

using SpecFactory = scenario::ScenarioSpec (*)(scenario::Mechanism);

struct GoldenCase {
  const char* name;
  SpecFactory make;
};

constexpr GoldenCase kGoldenScenarios[] = {
    {"fig3", &scenario::fig3_network_dynamics},
    {"fig5", &scenario::fig5_simultaneous_start},
    {"fig7", &scenario::fig7_staggered_start},
    {"fig9", &scenario::fig9_churn},
};

TEST(GoldenDeterminism, WheelOnMatchesWheelOffOnEveryGoldenScenario) {
  for (const auto& g : kGoldenScenarios) {
    for (const auto mech : {scenario::Mechanism::Corelite, scenario::Mechanism::Csfq}) {
      const Fingerprint on = run_with(g.make(mech), /*wheel=*/true, /*batch=*/true);
      const Fingerprint off = run_with(g.make(mech), /*wheel=*/false, /*batch=*/true);
      EXPECT_EQ(on.events, off.events) << g.name << " mech " << static_cast<int>(mech);
      EXPECT_EQ(on.delivered, off.delivered) << g.name << " mech " << static_cast<int>(mech);
      EXPECT_EQ(on.checksum, off.checksum) << g.name << " mech " << static_cast<int>(mech);
    }
  }
}

TEST(GoldenDeterminism, BatchingOnMatchesBatchingOffOnEveryGoldenScenario) {
  for (const auto& g : kGoldenScenarios) {
    for (const auto mech : {scenario::Mechanism::Corelite, scenario::Mechanism::Csfq}) {
      const Fingerprint on = run_with(g.make(mech), /*wheel=*/true, /*batch=*/true);
      const Fingerprint off = run_with(g.make(mech), /*wheel=*/true, /*batch=*/false);
      EXPECT_EQ(on.events, off.events) << g.name << " mech " << static_cast<int>(mech);
      EXPECT_EQ(on.delivered, off.delivered) << g.name << " mech " << static_cast<int>(mech);
      EXPECT_EQ(on.checksum, off.checksum) << g.name << " mech " << static_cast<int>(mech);
    }
  }
}

TEST(GoldenDeterminism, BothTiersOffStillMatchesTheGoldenFingerprint) {
  // Anchors the equivalence chain to the frozen seed-engine constants:
  // heap-only, unbatched — the engine configuration the golden numbers
  // were captured on.
  const Fingerprint fp =
      run_with(scenario::fig5_simultaneous_start(scenario::Mechanism::Corelite),
               /*wheel=*/false, /*batch=*/false);
  EXPECT_EQ(fp.events, 444442u);
  EXPECT_EQ(fp.delivered, 36665u);
  EXPECT_EQ(fp.checksum, 0xfcdc133cb00a346bULL);
}

// ---------------------------------------------------------------------------
// Side channels: the ScenarioResult fields the sweep's result digest does
// not cover (drop timing, queue series, q_avg means, unrouteable count,
// fluid outcome, audit verdict).  Pinned so a rewiring of the scenario
// layer cannot move them unnoticed.

struct SideHash {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) { h = fnv1a(h, v); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

std::uint64_t side_channel_hash(const scenario::ScenarioSpec& spec) {
  const auto r = scenario::run_paper_scenario(spec);
  SideHash d;
  d.mix(static_cast<std::uint64_t>(r.drop_times.size()));
  for (double t : r.drop_times) d.mix(t);
  d.mix(static_cast<std::uint64_t>(r.queue_series.size()));
  for (const auto& s : r.queue_series) {
    for (const auto& p : s.points()) {
      d.mix(p.t);
      d.mix(p.v);
    }
  }
  // q_avg means are pinned for the paper chain only.
  if (!spec.generated.has_value()) {
    d.mix(static_cast<std::uint64_t>(r.mean_q_avg.size()));
    for (double q : r.mean_q_avg) d.mix(q);
  }
  d.mix(r.unrouteable);
  const auto& f = r.fluid_stats;
  d.mix(static_cast<std::uint64_t>(f.enabled));
  d.mix(f.fast_forwarded_sec);
  d.mix(f.steady_detected_sec);
  d.mix(f.jumps);
  d.mix(f.events_elided_est);
  d.mix(f.synth_delivered);
  d.mix(f.synth_sent);
  d.mix(f.synth_dropped);
  d.mix(f.cert_attempts);
  d.mix(f.cert_reject_min_skip);
  d.mix(f.cert_reject_drift);
  d.mix(f.cert_reject_agreement);
  d.mix(f.cert_dwell_at_accept_sum);
  d.mix(static_cast<std::uint64_t>(r.audit_report != nullptr));
  if (r.audit_report != nullptr) {
    const auto& a = *r.audit_report;
    d.mix(static_cast<std::uint64_t>(a.watchdog_fired));
    d.mix(a.watchdog_window);
    d.mix(static_cast<std::uint64_t>(a.windows.size()));
    d.mix(a.min_jain);
    d.mix(a.worst_deviation);
    d.mix(static_cast<std::uint64_t>(a.worst_flow));
  }
  return d.h;
}

scenario::ScenarioSpec named(const char* name, scenario::Mechanism m) {
  auto spec = scenario::scenario_by_name(name, m);
  EXPECT_TRUE(spec.has_value()) << name;
  return spec.value_or(scenario::ScenarioSpec{});
}

TEST(GoldenDeterminism, SideChannelsMatchTheirPinnedHashes) {
  using scenario::Mechanism;
  EXPECT_EQ(side_channel_hash(named("fig5", Mechanism::Corelite)), 0x299068e56ae5ab1dULL);
  EXPECT_EQ(side_channel_hash(named("fig5", Mechanism::Csfq)), 0xa158c04b6e56ed89ULL);

  auto audited = named("fig5", Mechanism::Corelite);
  audited.audit.enabled = true;
  EXPECT_EQ(side_channel_hash(audited), 0x3663dbd9835b9692ULL);

  auto gen = named("gen-pl8-300", Mechanism::Csfq);
  gen.duration = sim::SimTime::seconds(10);
  EXPECT_EQ(side_channel_hash(gen), 0x426ed80a05a38c70ULL);

  auto fluid = named("gen-pl8-300-steady", Mechanism::Corelite);
  fluid.fluid.enabled = true;
  EXPECT_EQ(side_channel_hash(fluid), 0x1c15fb7884050502ULL);
}

}  // namespace
}  // namespace corelite
