// Fairness auditor + engine introspection tests.
//
// Three layers:
//   1. Auditor math on a synthetic two-flow tracker: deviations pinned
//      to the water-filling oracle, the demand-capped blind spot closed
//      by the uncapped overage test, watchdog consecutive/grace/boundary
//      semantics, and flight-recorder ring wraparound.
//   2. End-to-end scenario runs: fig5/fig7 under corelite and CSFQ stay
//      inside the band (watchdog silent), the recorded oracle shares are
//      reproducible from the recorded samples, a drop-tail run flooded
//      by an unresponsive source trips the watchdog and dumps the ring,
//      and CSFQ polices the same flood back to its fair share (the
//      paper's core claim) so its watchdog stays silent.
//   3. Engine probes: audit-on sweep digests are --jobs-invariant, the
//      LP profiler's per-LP event/message counts are thread-count-
//      invariant (and attaching it never changes the digest), the fluid
//      flight recorder bounds its log, and the heartbeat ETA model
//      keeps fluid and packet wall times separate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "runner/sweep.h"
#include "scenario/paper_topology.h"
#include "scenario/scenario.h"
#include "sim/fluid/allocator.h"
#include "sim/fluid/probe.h"
#include "sim/units.h"
#include "stats/flow_tracker.h"
#include "telemetry/engine_probe.h"
#include "telemetry/fairness_audit.h"

namespace tel = corelite::telemetry;
namespace fl = corelite::sim::fluid;
namespace rn = corelite::runner;
namespace sc = corelite::scenario;
namespace st = corelite::stats;
using corelite::net::FlowId;
using corelite::sim::SimTime;
using corelite::sim::TimeDelta;

namespace {

// ---------------------------------------------------------------------------
// Synthetic-tracker harness: one 100 pkt/s link, flows driven by hand.

struct AuditRig {
  st::FlowTracker tracker;
  std::unique_ptr<tel::FairnessAuditor> auditor;
  double t_sec = 0.0;

  AuditRig(tel::FairnessAuditConfig cfg, std::vector<tel::FairnessAuditor::FlowInfo> flows,
           tel::FairnessAuditor::ActiveFn active = nullptr) {
    for (const auto& f : flows) tracker.declare_flow(f.id, f.weight);
    auditor = std::make_unique<tel::FairnessAuditor>(cfg, tracker, std::vector<double>{100.0},
                                                     std::move(flows), std::move(active));
  }

  /// Advance one 1-second window in which flow `id` delivered/sent the
  /// given packet counts.
  void deliver(FlowId id, std::uint64_t delivered, std::uint64_t sent) {
    tracker.add_synthesized(id, delivered, sent, 0);
  }
  void close_window() {
    t_sec += 1.0;
    auditor->on_window(SimTime::seconds(t_sec));
  }
};

tel::FairnessAuditConfig rig_config() {
  tel::FairnessAuditConfig cfg;
  cfg.enabled = true;
  cfg.window = TimeDelta::seconds(1);
  cfg.band = 0.40;
  cfg.watchdog_windows = 3;
  cfg.grace_windows = 0;
  cfg.rate_floor_pps = 5.0;
  cfg.ring_capacity = 4;
  return cfg;
}

std::vector<tel::FairnessAuditor::FlowInfo> two_flows() {
  return {{1, 1.0, {0}}, {2, 1.0, {0}}};
}

TEST(AuditorConfig, RejectsNonPositiveOrNonFiniteWindowAndBand) {
  // A negative band flagged every window of a healthy run as a
  // violation; a non-positive window never advances.
  st::FlowTracker tracker;
  const auto build = [&tracker](const tel::FairnessAuditConfig& cfg) {
    const tel::FairnessAuditor auditor{cfg, tracker, {100.0}, two_flows(), nullptr};
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, nan, inf}) {
    tel::FairnessAuditConfig cfg = rig_config();
    cfg.window = TimeDelta::seconds(bad);
    EXPECT_THROW(build(cfg), std::invalid_argument) << "window " << bad;
    cfg = rig_config();
    cfg.band = bad;
    EXPECT_THROW(build(cfg), std::invalid_argument) << "band " << bad;
  }
  EXPECT_NO_THROW(build(rig_config()));
}

TEST(AuditorMath, DeviationPinnedToWaterFillingOracle) {
  AuditRig rig{rig_config(), {{1, 1.0, {0}}, {2, 3.0, {0}}}};
  // Both flows over-demand a 100 pkt/s link at weights 1:3 -> oracle
  // shares 25 and 75.  Flow 1 delivers 40 (dev +0.6), flow 2 delivers
  // 60 (dev -0.2).
  rig.deliver(1, 40, 120);
  rig.deliver(2, 60, 120);
  rig.close_window();

  const tel::FairnessAuditReport rep = rig.auditor->take_report();
  ASSERT_EQ(rep.windows.size(), 1u);
  const tel::AuditWindow& w = rep.windows[0];
  ASSERT_EQ(w.flows.size(), 2u);
  EXPECT_NEAR(w.flows[0].oracle_pps, 25.0, 1e-9);
  EXPECT_NEAR(w.flows[1].oracle_pps, 75.0, 1e-9);
  EXPECT_NEAR(w.flows[0].deviation, (40.0 - 25.0) / 25.0, 1e-9);
  EXPECT_NEAR(w.flows[1].deviation, (60.0 - 75.0) / 75.0, 1e-9);
  // Uncapped shares are the same here (demands exceed them).
  EXPECT_NEAR(w.flows[0].fair_share_pps, 25.0, 1e-9);
  EXPECT_NEAR(w.flows[1].fair_share_pps, 75.0, 1e-9);
  EXPECT_EQ(w.violations, 1u);  // flow 1 out of band, flow 2 inside
  EXPECT_EQ(w.worst_flow, 1u);
  EXPECT_NEAR(w.worst_deviation, 0.6, 1e-9);
  EXPECT_TRUE(w.violating);
}

TEST(AuditorMath, SelfThrottledFlowIsItsOwnOracle) {
  AuditRig rig{rig_config(), two_flows()};
  // Flow 1 chose to send only 10 pkt/s; the demand-capped oracle gives
  // it exactly that, so it must not read as starved.
  rig.deliver(1, 10, 10);
  rig.deliver(2, 90, 120);
  rig.close_window();

  const tel::FairnessAuditReport rep = rig.auditor->take_report();
  const tel::AuditWindow& w = rep.windows[0];
  EXPECT_NEAR(w.flows[0].oracle_pps, 10.0, 1e-9);
  EXPECT_NEAR(w.flows[0].deviation, 0.0, 1e-9);
  EXPECT_NEAR(w.flows[1].oracle_pps, 90.0, 1e-9);
  EXPECT_NEAR(w.flows[1].deviation, 0.0, 1e-9);
  // But flow 2 exceeds its UNcapped 50/50 share by 80% -> overage
  // violation: the spare capacity excuse only goes as far as the band.
  EXPECT_NEAR(w.flows[1].fair_share_pps, 50.0, 1e-9);
  EXPECT_NEAR(w.flows[1].overage, (90.0 - 50.0) / 50.0, 1e-9);
  EXPECT_TRUE(w.violating);
  EXPECT_EQ(w.worst_flow, 2u);
}

TEST(AuditorMath, OverageClosesTheFloodBlindSpot) {
  // The flood scenario in miniature: flow 1 blasts and gets 90; flow 2
  // has been beaten down to offering 5.  The capped oracle is satisfied
  // (both flows get >= their demand-capped share) -- only the uncapped
  // overage test sees the grab.
  AuditRig rig{rig_config(), two_flows()};
  rig.deliver(1, 90, 95);
  rig.deliver(2, 5, 5);
  rig.close_window();

  const tel::FairnessAuditReport rep = rig.auditor->take_report();
  const tel::AuditWindow& w = rep.windows[0];
  EXPECT_LE(std::abs(w.flows[0].deviation), 0.40);  // capped test blessed it
  EXPECT_NEAR(w.flows[0].fair_share_pps, 50.0, 1e-9);
  EXPECT_GT(w.flows[0].overage, 0.40);  // the uncapped test did not
  EXPECT_TRUE(w.violating);
}

TEST(AuditorWatchdog, TripsAfterConsecutiveViolations) {
  AuditRig rig{rig_config(), two_flows()};  // watchdog_windows = 3, grace 0
  for (int i = 0; i < 6; ++i) {
    rig.deliver(1, 90, 95);
    rig.deliver(2, 5, 5);
    rig.close_window();
  }
  EXPECT_TRUE(rig.auditor->watchdog_fired());
  const tel::FairnessAuditReport rep = rig.auditor->take_report();
  EXPECT_TRUE(rep.watchdog_fired);
  EXPECT_EQ(rep.watchdog_window, 2u);  // windows 0,1,2 -> third consecutive
  // The dump holds everything up to and including the tripping window.
  ASSERT_EQ(rep.flight_recorder.size(), 3u);
  EXPECT_EQ(rep.flight_recorder.back().index, 2u);
  // Auditing continued after the trip.
  EXPECT_EQ(rep.windows.size(), 6u);
}

TEST(AuditorWatchdog, GraceWindowsResetTheCount) {
  tel::FairnessAuditConfig cfg = rig_config();
  cfg.grace_windows = 5;
  AuditRig rig{cfg, two_flows()};
  for (int i = 0; i < 8; ++i) {
    rig.deliver(1, 90, 95);
    rig.deliver(2, 5, 5);
    rig.close_window();
  }
  const tel::FairnessAuditReport rep = rig.auditor->take_report();
  ASSERT_TRUE(rep.watchdog_fired);
  // Windows 0-4 are grace; the count starts at window 5 and reaches 3
  // at window 7.
  EXPECT_EQ(rep.watchdog_window, 7u);
}

TEST(AuditorWatchdog, BoundaryWindowResetsTheCount) {
  // Flow 3 carries no traffic but becomes active at t = 1.5 s, inside
  // window 1 -- a boundary window that must reset the consecutive
  // count even though the window itself still violates.
  auto active = [](FlowId id, double t) { return id != 3 || t >= 1.5; };
  std::vector<tel::FairnessAuditor::FlowInfo> flows = two_flows();
  flows.push_back({3, 1.0, {0}});
  AuditRig rig{rig_config(), std::move(flows), active};
  for (int i = 0; i < 5; ++i) {
    rig.deliver(1, 90, 95);
    rig.deliver(2, 5, 5);
    rig.close_window();
  }
  const tel::FairnessAuditReport rep = rig.auditor->take_report();
  EXPECT_TRUE(rep.windows[1].boundary);
  ASSERT_TRUE(rep.watchdog_fired);
  // Without the boundary reset the trip would land on window 2; the
  // reset pushes it to window 4 (violating run 2,3,4).
  EXPECT_EQ(rep.watchdog_window, 4u);
}

TEST(AuditorWatchdog, RingWrapsAroundAndDumpsOldestFirst) {
  tel::FairnessAuditConfig cfg = rig_config();
  cfg.watchdog_windows = 6;
  cfg.ring_capacity = 4;
  AuditRig rig{cfg, two_flows()};
  for (int i = 0; i < 6; ++i) {
    rig.deliver(1, 90, 95);
    rig.deliver(2, 5, 5);
    rig.close_window();
  }
  const tel::FairnessAuditReport rep = rig.auditor->take_report();
  ASSERT_TRUE(rep.watchdog_fired);
  EXPECT_EQ(rep.watchdog_window, 5u);
  // Six windows through a 4-deep ring: the dump is windows 2..5 in
  // oldest-first order.
  ASSERT_EQ(rep.flight_recorder.size(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(rep.flight_recorder[k].index, 2u + k);
  }
}

// ---------------------------------------------------------------------------
// End-to-end scenario runs.

sc::ScenarioSpec audited(sc::ScenarioSpec spec) {
  spec.audit.enabled = true;
  return spec;
}

TEST(AuditScenario, Fig5CoreliteInBandAndReproducible) {
  const sc::ScenarioResult r = sc::run_paper_scenario(audited(
      sc::fig5_simultaneous_start(sc::Mechanism::Corelite)));
  ASSERT_NE(r.audit_report, nullptr);
  const tel::FairnessAuditReport& rep = *r.audit_report;
  EXPECT_FALSE(rep.watchdog_fired);
  ASSERT_GE(rep.windows.size(), 10u);
  EXPECT_GT(rep.min_jain, 0.6);

  // Pin the recorded oracle: re-solve water-filling from the recorded
  // samples over the paper topology's three 500 pkt/s core links and
  // demand both the capped share and the deviation arithmetic match.
  const std::vector<double> caps(3, 500.0);
  for (const tel::AuditWindow& w : rep.windows) {
    std::vector<fl::AllocFlow> capped(w.flows.size());
    std::vector<fl::AllocFlow> uncapped(w.flows.size());
    for (std::size_t i = 0; i < w.flows.size(); ++i) {
      const tel::AuditFlowSample& s = w.flows[i];
      const auto links = sc::PaperTopology::congested_links(s.id);
      capped[i].weight = uncapped[i].weight = s.weight;
      for (const std::size_t l : links) {
        capped[i].links.push_back(static_cast<std::uint32_t>(l));
      }
      uncapped[i].links = capped[i].links;
      capped[i].demand = s.active ? std::max(s.sent_pps, 0.0) : 0.0;
      uncapped[i].demand = s.active ? 1e15 : 0.0;
    }
    const std::vector<double> oracle = fl::water_fill(caps, capped);
    const std::vector<double> fair = fl::water_fill(caps, uncapped);
    for (std::size_t i = 0; i < w.flows.size(); ++i) {
      const tel::AuditFlowSample& s = w.flows[i];
      EXPECT_NEAR(s.oracle_pps, oracle[i], 1e-6) << "window " << w.index << " flow " << s.id;
      EXPECT_NEAR(s.fair_share_pps, fair[i], 1e-6) << "window " << w.index << " flow " << s.id;
      EXPECT_NEAR(s.deviation, (s.rate_pps - oracle[i]) / std::max(oracle[i], 5.0), 1e-6);
      EXPECT_NEAR(s.overage, (s.rate_pps - fair[i]) / std::max(fair[i], 5.0), 1e-6);
    }
  }
}

TEST(AuditScenario, Fig7StaggeredStartsStaySilent) {
  for (const sc::Mechanism m : {sc::Mechanism::Corelite, sc::Mechanism::Csfq}) {
    const sc::ScenarioResult r = sc::run_paper_scenario(audited(sc::fig7_staggered_start(m)));
    ASSERT_NE(r.audit_report, nullptr) << sc::mechanism_name(m);
    // Staggered arrivals violate transiently, but every arrival lands
    // in a boundary window that resets the watchdog count.
    EXPECT_FALSE(r.audit_report->watchdog_fired) << sc::mechanism_name(m);
    EXPECT_GE(r.audit_report->windows.size(), 10u);
  }
}

TEST(AuditScenario, DropTailFloodTripsWatchdogAndDumpsRing) {
  sc::ScenarioSpec spec = audited(sc::fig5_simultaneous_start(sc::Mechanism::DropTail));
  spec.flood_pps.assign(spec.num_flows, 0.0);
  spec.flood_pps[0] = 600.0;  // flow 1 blasts at 1.2x the link rate
  const sc::ScenarioResult r = sc::run_paper_scenario(spec);
  ASSERT_NE(r.audit_report, nullptr);
  const tel::FairnessAuditReport& rep = *r.audit_report;
  EXPECT_TRUE(rep.watchdog_fired);
  EXPECT_FALSE(rep.flight_recorder.empty());
  // The dump carries engine gauges (queue occupancies) for every window.
  ASSERT_FALSE(rep.gauge_names.empty());
  for (const tel::AuditWindow& w : rep.flight_recorder) {
    EXPECT_EQ(w.gauges.size(), rep.gauge_names.size());
  }
  // The worst offender is the flood itself, far over its fair share.
  EXPECT_EQ(rep.worst_flow, 1u);
  EXPECT_GT(rep.worst_deviation, 0.40);
}

TEST(AuditScenario, CsfqPolicesTheSameFlood) {
  // The paper's claim: a core-stateless fair-queueing network confines
  // an unresponsive flood to its fair share.  Same flood, CSFQ
  // mechanism -> the auditor must stay silent.
  sc::ScenarioSpec spec = audited(sc::fig5_simultaneous_start(sc::Mechanism::Csfq));
  spec.flood_pps.assign(spec.num_flows, 0.0);
  spec.flood_pps[0] = 600.0;
  const sc::ScenarioResult r = sc::run_paper_scenario(spec);
  ASSERT_NE(r.audit_report, nullptr);
  EXPECT_FALSE(r.audit_report->watchdog_fired);
  // After the grace windows the flood's delivered rate sits at (or
  // below) its uncapped fair share within the band.
  for (const tel::AuditWindow& w : r.audit_report->windows) {
    if (w.index < 3) continue;
    for (const tel::AuditFlowSample& s : w.flows) {
      if (s.id != 1) continue;
      EXPECT_LT(s.overage, 0.40) << "window " << w.index;
    }
  }
}

// ---------------------------------------------------------------------------
// Digest contracts and engine probes.

TEST(AuditSweep, CombinedDigestIsJobsInvariant) {
  std::vector<rn::RunDescriptor> runs;
  for (std::size_t i = 0; i < 4; ++i) {
    rn::RunDescriptor d;
    d.scenario = "fig5";
    d.mechanism = sc::Mechanism::Corelite;
    d.seed = 42;
    d.repeat = i;
    d.duration_sec = 20.0;
    runs.push_back(d);
  }
  const rn::SpecHook hook = [](sc::ScenarioSpec& spec) { spec.audit.enabled = true; };

  auto digest_with_jobs = [&](std::size_t jobs) {
    rn::SweepRunner runner{jobs};
    runner.set_run_spec_hook(0, hook);
    const std::vector<rn::RunResult> results = runner.run(runs);
    EXPECT_NE(results[0].audit, nullptr);   // the hooked run carries the report
    EXPECT_EQ(results[1].audit, nullptr);   // the rest of the grid stays clean
    return rn::combined_digest(results);
  };
  EXPECT_EQ(digest_with_jobs(1), digest_with_jobs(4));
}

TEST(AuditSweep, AuditOnDigestDiffersFromOffDeterministically) {
  rn::RunDescriptor d;
  d.scenario = "fig5";
  d.mechanism = sc::Mechanism::Corelite;
  d.seed = 7;
  d.duration_sec = 20.0;
  const rn::SpecHook hook = [](sc::ScenarioSpec& spec) { spec.audit.enabled = true; };

  const std::uint64_t off = rn::execute_run(d).digest;
  const std::uint64_t on1 = rn::execute_run(d, nullptr, hook).digest;
  const std::uint64_t on2 = rn::execute_run(d, nullptr, hook).digest;
  EXPECT_EQ(on1, on2);  // audit-on is deterministic...
  EXPECT_NE(on1, off);  // ...and deliberately distinct (the sampler adds events)
}

TEST(LpProfilerProbe, CountsAreThreadCountInvariantAndDigestNeutral) {
  auto run_with_threads = [](std::size_t lp_threads, tel::LpProfiler* prof) {
    rn::RunDescriptor d;
    d.scenario = "fig5";
    d.mechanism = sc::Mechanism::Corelite;
    d.seed = 11;
    d.duration_sec = 20.0;
    d.lp = 2;
    d.lp_threads = lp_threads;
    const rn::SpecHook hook = [prof](sc::ScenarioSpec& spec) { spec.lp_probe = prof; };
    return rn::execute_run(d, nullptr, prof ? hook : rn::SpecHook{});
  };

  tel::LpProfiler p1;
  tel::LpProfiler p2;
  const rn::RunResult r1 = run_with_threads(1, &p1);
  const rn::RunResult r2 = run_with_threads(2, &p2);
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);

  // Attaching the probe is pure observation: same digest as bare runs.
  const rn::RunResult bare = run_with_threads(2, nullptr);
  EXPECT_EQ(r1.digest, bare.digest);
  EXPECT_EQ(r2.digest, bare.digest);

  // Per-LP event and cross-LP message counts depend only on the LP
  // partition, never on how many OS threads drove it.
  ASSERT_EQ(p1.report().lp_count, p2.report().lp_count);
  ASSERT_EQ(p1.report().lps.size(), p2.report().lps.size());
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < p1.report().lps.size(); ++i) {
    EXPECT_EQ(p1.report().lps[i].events, p2.report().lps[i].events) << "lp " << i;
    EXPECT_EQ(p1.report().lps[i].msgs_in, p2.report().lps[i].msgs_in) << "lp " << i;
    total_events += p1.report().lps[i].events;
  }
  EXPECT_GT(total_events, 0u);
  EXPECT_EQ(p2.report().threads, 2u);
}

TEST(FluidRecorder, BoundsTheLogAndCountsDrops) {
  tel::FluidFlightRecorder rec{2};
  fl::FluidCertEvent e;
  e.kind = fl::FluidCertEvent::Kind::kAttempt;
  rec.on_cert_event(e);
  e.kind = fl::FluidCertEvent::Kind::kAccept;
  rec.on_cert_event(e);
  e.kind = fl::FluidCertEvent::Kind::kReanchor;
  rec.on_cert_event(e);
  EXPECT_EQ(rec.events().size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_EQ(rec.events()[0].kind, fl::FluidCertEvent::Kind::kAttempt);
  EXPECT_EQ(tel::FluidFlightRecorder::kind_name(fl::FluidCertEvent::Kind::kAccept), "accept");
}

// ---------------------------------------------------------------------------
// Heartbeat ETA model.

TEST(EtaModel, UnknownUntilFirstCompletion) {
  rn::EtaSnapshot snap;
  snap.workers = 4;
  snap.pending_packet = 10;
  EXPECT_LT(rn::estimate_eta_sec(snap), 0.0);
}

TEST(EtaModel, PerKindAveragesDoNotPool) {
  // 2 packet runs at 1000 ms, 2 fluid runs at 100 ms; 10 fluid runs
  // pending on 1 worker.  A pooled mean (550 ms) would predict 5.5 s;
  // the per-kind model predicts 1 s.
  rn::EtaSnapshot snap;
  snap.workers = 1;
  snap.done_packet = 2;
  snap.wall_ms_packet = 2000.0;
  snap.done_fluid = 2;
  snap.wall_ms_fluid = 200.0;
  snap.pending_fluid = 10;
  EXPECT_NEAR(rn::estimate_eta_sec(snap), 1.0, 1e-9);
}

TEST(EtaModel, PooledFallbackWhenAKindHasNoCompletions) {
  rn::EtaSnapshot snap;
  snap.workers = 1;
  snap.done_packet = 1;
  snap.wall_ms_packet = 1000.0;
  snap.pending_fluid = 2;  // no fluid run has finished yet
  EXPECT_NEAR(rn::estimate_eta_sec(snap), 2.0, 1e-9);
}

TEST(EtaModel, BusyRunsGetElapsedCredit) {
  rn::EtaSnapshot snap;
  snap.workers = 2;
  snap.done_packet = 4;
  snap.wall_ms_packet = 4000.0;  // avg 1000 ms
  snap.pending_packet = 4;
  snap.busy.push_back({false, 600.0});   // 400 ms of its average left
  snap.busy.push_back({false, 5000.0});  // past the average: zero, not negative
  EXPECT_NEAR(rn::estimate_eta_sec(snap), (4 * 1000.0 + 400.0 + 0.0) / 2000.0, 1e-9);
}

}  // namespace
