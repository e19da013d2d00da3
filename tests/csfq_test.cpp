// Unit and small-network tests for the weighted CSFQ baseline:
// exponential rate estimation, fair-share (alpha) estimation, the
// probabilistic dropper, relabeling, and loss notification.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "csfq/core.h"
#include "csfq/edge_router.h"
#include "csfq/rate_estimator.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/flow_tracker.h"

namespace corelite::csfq {
namespace {

sim::SimTime at(double t) { return sim::SimTime::seconds(t); }

// ---------------------------------------------------------------------------
// ExponentialRateEstimator

TEST(RateEstimator, ConvergesToArrivalRate) {
  ExponentialRateEstimator est{sim::TimeDelta::millis(100)};
  // 200 packets/s for 2 s (20 averaging constants).
  for (int i = 0; i < 400; ++i) est.on_arrival(1.0, at(i * 0.005));
  EXPECT_NEAR(est.rate(), 200.0, 10.0);
}

TEST(RateEstimator, TracksRateChange) {
  ExponentialRateEstimator est{sim::TimeDelta::millis(100)};
  for (int i = 0; i < 200; ++i) est.on_arrival(1.0, at(i * 0.005));  // 200 pps to t=1
  for (int i = 0; i < 50; ++i) est.on_arrival(1.0, at(1.0 + i * 0.02));  // 50 pps to t=2
  EXPECT_NEAR(est.rate(), 50.0, 5.0);
}

TEST(RateEstimator, InsensitiveToAveragingWindowChoice) {
  // Same arrival process, different K: both converge to the same rate.
  ExponentialRateEstimator fast{sim::TimeDelta::millis(50)};
  ExponentialRateEstimator slow{sim::TimeDelta::millis(500)};
  for (int i = 0; i < 2000; ++i) {
    fast.on_arrival(1.0, at(i * 0.01));
    slow.on_arrival(1.0, at(i * 0.01));
  }
  EXPECT_NEAR(fast.rate(), 100.0, 5.0);
  EXPECT_NEAR(slow.rate(), 100.0, 5.0);
}

TEST(RateEstimator, ResetClearsState) {
  ExponentialRateEstimator est{sim::TimeDelta::millis(100)};
  est.on_arrival(1.0, at(0.0));
  est.reset();
  EXPECT_FALSE(est.started());
  EXPECT_DOUBLE_EQ(est.rate(), 0.0);
}

TEST(RateEstimator, SimultaneousArrivalsDoNotDivideByZero) {
  ExponentialRateEstimator est{sim::TimeDelta::millis(100)};
  est.on_arrival(1.0, at(1.0));
  est.on_arrival(1.0, at(1.0));
  est.on_arrival(1.0, at(1.0));
  EXPECT_TRUE(std::isfinite(est.rate()));
  EXPECT_GT(est.rate(), 0.0);
}

// ---------------------------------------------------------------------------
// CsfqLinkPolicy

net::Packet labeled_packet(double label, net::FlowId flow = 1) {
  net::Packet p;
  p.kind = net::PacketKind::Data;
  p.flow = flow;
  p.size = sim::DataSize::kilobytes(1);
  p.label = label;
  return p;
}

TEST(CsfqPolicy, NoDropsWhenUncongested) {
  sim::Rng rng{1};
  CsfqConfig cfg;
  CsfqLinkPolicy policy{cfg, /*capacity_pps=*/500.0, rng};
  // 100 pkt/s offered on a 500 pkt/s link: everything passes.
  for (int i = 0; i < 300; ++i) {
    auto p = labeled_packet(100.0);
    EXPECT_TRUE(policy.admit(p, at(i * 0.01)));
  }
  EXPECT_FALSE(policy.congested());
  EXPECT_EQ(policy.drops(), 0u);
}

TEST(CsfqPolicy, AlphaTracksMaxLabelWhenUncongested) {
  sim::Rng rng{1};
  CsfqConfig cfg;
  CsfqLinkPolicy policy{cfg, 500.0, rng};
  for (int i = 0; i < 300; ++i) {
    auto p = labeled_packet(i % 2 == 0 ? 40.0 : 90.0);
    (void)policy.admit(p, at(i * 0.01));
  }
  EXPECT_NEAR(policy.alpha(), 90.0, 1e-9);
}

TEST(CsfqPolicy, OverloadedLinkDropsProportionally) {
  sim::Rng rng{3};
  CsfqConfig cfg;
  CsfqLinkPolicy policy{cfg, 500.0, rng};
  // Two flows, labels 300 and 100 (normalized), aggregate 1000 pkt/s on a
  // 500 pkt/s link.  After alpha converges, flow 1 should be capped near
  // alpha/label_1 acceptance and flow 2 near min(1, alpha/label_2).
  int accept1 = 0;
  int accept2 = 0;
  int sent1 = 0;
  int sent2 = 0;
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += 0.001;  // 1000 pkt/s aggregate
    const bool flow1 = (i % 4) != 3;  // 750 pps with label 300... mix 3:1
    auto p = flow1 ? labeled_packet(300.0, 1) : labeled_packet(100.0, 2);
    const bool ok = policy.admit(p, at(t));
    if (flow1) {
      ++sent1;
      accept1 += ok;
    } else {
      ++sent2;
      accept2 += ok;
    }
  }
  EXPECT_TRUE(policy.congested());
  EXPECT_GT(policy.drops(), 0u);
  const double frac1 = static_cast<double>(accept1) / sent1;
  const double frac2 = static_cast<double>(accept2) / sent2;
  // The higher-labelled flow must lose a larger fraction.
  EXPECT_LT(frac1, frac2);
}

TEST(CsfqPolicy, RelabelsToMinLabelAlpha) {
  sim::Rng rng{1};
  CsfqConfig cfg;
  CsfqLinkPolicy policy{cfg, 500.0, rng};
  // Converge alpha below 200 by overloading with label-200 packets.
  double t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    t += 0.00125;  // 800 pps > 500 capacity
    auto p = labeled_packet(200.0);
    (void)policy.admit(p, at(t));
  }
  ASSERT_TRUE(policy.congested());
  ASSERT_LT(policy.alpha(), 200.0);
  auto p = labeled_packet(200.0);
  // Find an accepted packet and check its outgoing label.
  while (!policy.admit(p, at(t += 0.00125))) p = labeled_packet(200.0);
  EXPECT_NEAR(p.label, policy.alpha(), 1e-9);
}

// ---------------------------------------------------------------------------
// CSFQ end to end on a small network

struct CsfqNetFixture {
  sim::Simulator simulator{5};
  net::Network network{simulator};
  net::NodeId edge_a = network.add_node("edgeA");
  net::NodeId edge_b = network.add_node("edgeB");
  net::NodeId core = network.add_node("core");
  net::NodeId sink = network.add_node("sink");
  CsfqConfig cfg;
  stats::FlowTracker tracker;

  CsfqNetFixture() {
    network.connect_duplex(edge_a, core, sim::Rate::mbps(10), sim::TimeDelta::millis(5), 100);
    network.connect_duplex(edge_b, core, sim::Rate::mbps(10), sim::TimeDelta::millis(5), 100);
    network.connect_duplex(core, sink, sim::Rate::mbps(4), sim::TimeDelta::millis(5), 40);
    network.build_routes();
    network.node(sink).set_local_sink([this](net::Packet&& p) {
      if (p.is_data()) tracker.on_delivered(p.flow);
    });
  }

  net::FlowSpec flow(net::FlowId id, net::NodeId ingress, double weight) {
    net::FlowSpec fs;
    fs.id = id;
    fs.ingress = ingress;
    fs.egress = sink;
    fs.weight = weight;
    return fs;
  }
};

TEST(CsfqNetwork, LossNoticesReachIngressAndThrottle) {
  CsfqNetFixture f;
  CsfqCoreRouter core{f.network, f.core, f.cfg};
  CsfqEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CsfqEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 1.0));
  f.simulator.run_until(sim::SimTime::seconds(60));
  EXPECT_GT(core.loss_notices_sent(), 0u);
  EXPECT_GT(ea.loss_notices_received() + eb.loss_notices_received(), 0u);
  // Rates must settle near the 250/250 fair split rather than blow up.
  const double ra = f.tracker.series(1).allotted_rate.average_over(30, 60);
  const double rb = f.tracker.series(2).allotted_rate.average_over(30, 60);
  EXPECT_NEAR(ra + rb, 500.0, 120.0);
}

TEST(CsfqNetwork, WeightedSharesEmerge) {
  CsfqNetFixture f;
  CsfqCoreRouter core{f.network, f.core, f.cfg};
  CsfqEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CsfqEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 3.0));
  f.simulator.run_until(sim::SimTime::seconds(120));
  const double ra = f.tracker.series(1).allotted_rate.average_over(60, 120);
  const double rb = f.tracker.series(2).allotted_rate.average_over(60, 120);
  EXPECT_NEAR(rb / ra, 3.0, 1.2);
}

TEST(CsfqNetwork, DropTailBaselineIsLessFairAtEqualWeights) {
  // Same offered load through a dumb FIFO core: both flows still adapt
  // via loss notices (so rates stay bounded) but CSFQ's drops target the
  // over-share flow whereas FIFO's hit whoever arrives at a full queue.
  CsfqNetFixture f;
  LossNotifyingCoreRouter core{f.network, f.core};
  CsfqEdgeRouter ea{f.network, f.edge_a, f.cfg, &f.tracker};
  CsfqEdgeRouter eb{f.network, f.edge_b, f.cfg, &f.tracker};
  ea.add_flow(f.flow(1, f.edge_a, 1.0));
  eb.add_flow(f.flow(2, f.edge_b, 3.0));
  f.simulator.run_until(sim::SimTime::seconds(120));
  EXPECT_GT(core.loss_notices_sent(), 0u);
  const double ra = f.tracker.series(1).allotted_rate.average_over(60, 120);
  const double rb = f.tracker.series(2).allotted_rate.average_over(60, 120);
  // FIFO cannot enforce the 3:1 weighting; the ratio lands near 1.
  EXPECT_LT(rb / ra, 2.0);
}

// Logs every data packet an edge emits, with the edge's allowed rate
// for its flow at that instant: the access link's enqueue fires inside
// the emission, before the next one is scheduled.
struct EmissionLog : net::LinkObserver {
  struct Emission {
    sim::SimTime at;
    double rate_pps;
  };
  const CsfqEdgeRouter* edge = nullptr;
  std::vector<Emission> flow1;
  std::vector<Emission> flood;

  void on_enqueue(const net::Packet& p, sim::SimTime now) override {
    if (!p.is_data()) return;
    (p.flow == 1 ? flow1 : flood).push_back({now, edge->current_rate_pps(p.flow)});
  }
};

// The emission after `e` must follow it by exactly one period of the
// rate in force at `e` (the edge floors the rate at 1e-3 pkt/s).
void expect_paced(const EmissionLog::Emission& e, const EmissionLog::Emission& next,
                  double rate_pps) {
  const sim::SimTime due = e.at + sim::TimeDelta::seconds(1.0 / std::max(rate_pps, 1e-3));
  EXPECT_EQ(next.at.sec(), due.sec()) << "emission at " << e.at.sec() << " s";
}

TEST(CsfqEdge, EmissionGapFollowsTheCurrentAllowedRate) {
  sim::Simulator simulator{3};
  net::Network network{simulator};
  const net::NodeId edge = network.add_node("edge");
  const net::NodeId sink = network.add_node("sink");
  net::Link* access = network.connect_duplex(edge, sink, sim::Rate::mbps(100),
                                             sim::TimeDelta::millis(1), 1000).first;
  network.build_routes();
  network.node(sink).set_local_sink([](net::Packet&&) {});

  CsfqConfig cfg;
  // A slow additive increase keeps the rate below its pre-loss value
  // for many emissions after the loss epoch halves it.
  cfg.adapt.alpha_pps = 0.01;
  CsfqEdgeRouter router{network, edge, cfg};
  EmissionLog log;
  log.edge = &router;
  access->add_observer(&log, net::Link::kObserveEnqueue);

  // Flow 1 stops at 4.3 s and restarts at 6.2 s; flow 2 is a flood.
  net::FlowSpec f1;
  f1.id = 1;
  f1.ingress = edge;
  f1.egress = sink;
  f1.active = {{at(0), at(4.3)}, {at(6.2), sim::SimTime::infinite()}};
  router.add_flow(f1);
  net::FlowSpec f2 = f1;
  f2.id = 2;
  f2.active = {{at(0), sim::SimTime::infinite()}};
  f2.flood_pps = 250.0;
  router.add_flow(f2);

  // Three loss notices for flow 1 at 2.5 s: the next epoch ends its
  // slow start by halving the rate.
  double rate_before_losses = 0.0;
  simulator.at(at(2.5), [&] {
    rate_before_losses = router.current_rate_pps(1);
    for (int i = 0; i < 3; ++i) {
      net::Packet n;
      n.kind = net::PacketKind::LossNotice;
      n.flow = 1;
      n.src = sink;
      n.dst = edge;
      n.size = sim::DataSize::bytes(64);
      network.inject(sink, std::move(n));
    }
  });
  simulator.run_until(at(10));
  access->remove_observer(&log);
  ASSERT_GE(router.loss_notices_received(), 3u);

  const auto& e = log.flow1;
  ASSERT_GT(e.size(), 10u);
  bool after_start = false;
  bool after_loss_epoch = false;
  bool after_restart = false;
  for (std::size_t i = 0; i + 1 < e.size(); ++i) {
    if (e[i].at < at(4.3) && e[i + 1].at >= at(4.3)) {
      // The restart emits at once, at the initial rate.
      EXPECT_EQ(e[i + 1].at.sec(), 6.2);
      EXPECT_DOUBLE_EQ(e[i + 1].rate_pps, cfg.adapt.initial_rate_pps);
      continue;
    }
    expect_paced(e[i], e[i + 1], e[i].rate_pps);
    if (i == 0) after_start = true;
    if (e[i].at > at(2.5) && e[i].at < at(4.3) && e[i].rate_pps < rate_before_losses) {
      after_loss_epoch = true;
    }
    if (e[i].at == at(6.2)) after_restart = true;
  }
  EXPECT_TRUE(after_start);
  EXPECT_TRUE(after_loss_epoch);
  EXPECT_TRUE(after_restart);

  ASSERT_GT(log.flood.size(), 100u);
  for (std::size_t i = 0; i + 1 < log.flood.size(); ++i) {
    expect_paced(log.flood[i], log.flood[i + 1], 250.0);
  }
}

TEST(CsfqNetwork, RouterDestructionDetachesObserversFromLinks) {
  // Regression: destroying a core router before the network used to
  // leave its LinkObserver pointers registered on the links, so any
  // later drop dereferenced freed memory (caught under ASan).
  sim::Simulator simulator{1};
  net::Network network{simulator};
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  net::Link& link = network.connect(a, b, sim::Rate::mbps(4), sim::TimeDelta::millis(1), 2);
  network.build_routes();

  {
    CsfqCoreRouter csfq_router{network, a, CsfqConfig{}};
    LossNotifyingCoreRouter notifier{network, a};
    // Both routers die here, before the network and its links.
  }

  // Overflow the 2-packet queue so the link fires on_drop on whatever
  // observers remain registered.
  for (int i = 0; i < 8; ++i) {
    net::Packet p;
    p.uid = static_cast<std::uint64_t>(i + 1);
    p.kind = net::PacketKind::Data;
    p.flow = 1;
    p.src = a;
    p.dst = b;
    p.size = sim::DataSize::kilobytes(1);
    p.created = simulator.now();
    link.send(std::move(p));
  }
  simulator.run();
  EXPECT_GT(link.stats().dropped, 0u);
}

}  // namespace
}  // namespace corelite::csfq
