#include "probes.h"

#include <chrono>
#include <cstdint>

#include "csfq/core.h"
#include "net/network.h"
#include "qos/marker_selector.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace perfbench {

namespace sim = corelite::sim;
namespace net = corelite::net;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Keeps a probe's result observable so the optimizer cannot drop the work.
volatile double g_sink = 0.0;

struct HoldModel {
  sim::EventQueue q;
  const std::vector<double>* delays = nullptr;
  std::size_t next = 0;
  std::size_t fired = 0;

  void arm(double at) {
    const double d = (*delays)[next++ % delays->size()];
    q.schedule_detached(sim::SimTime::seconds(at + d), [this, t = at + d] {
      ++fired;
      arm(t);
    });
  }
};

}  // namespace

double event_queue_ns(const std::vector<double>& delays_s, std::size_t pending, std::size_t ops) {
  HoldModel h;
  h.delays = &delays_s;
  for (std::size_t i = 0; i < pending; ++i) h.arm(0.0);
  for (std::size_t i = 0; i < pending; ++i) (void)h.q.run_next();  // warm the slot pool
  const std::size_t before = h.fired;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) (void)h.q.run_next();
  const double ns = ns_since(t0);
  g_sink = static_cast<double>(h.fired);
  return ns / static_cast<double>(h.fired - before);
}

double link_hop_ns(sim::Rate rate, sim::TimeDelta delay, sim::DataSize packet, std::size_t hops,
                   std::size_t packets) {
  sim::Simulator simulator;
  net::Network network{simulator};
  std::vector<net::NodeId> nodes;
  for (std::size_t i = 0; i <= hops; ++i) {
    nodes.push_back(network.add_node("H" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < hops; ++i) network.connect(nodes[i], nodes[i + 1], rate, delay, 64);
  network.build_routes();
  std::uint64_t delivered = 0;
  network.node(nodes.back()).set_local_sink([&delivered](net::Packet&&) { ++delivered; });

  const sim::TimeDelta gap = rate.serialization_time(packet);
  std::size_t injected = 0;
  auto source = simulator.every(gap, [&] {
    if (injected == packets) return;
    net::Packet p;
    p.uid = network.next_packet_uid();
    p.kind = net::PacketKind::Data;
    p.flow = 1;
    p.src = nodes.front();
    p.dst = nodes.back();
    p.size = packet;
    p.created = simulator.now();
    ++injected;
    network.inject(nodes.front(), std::move(p));
  }, sim::TimeDelta::zero());
  const auto t0 = Clock::now();
  simulator.run_until(sim::SimTime::seconds(gap.sec() * static_cast<double>(packets + 2) +
                                            static_cast<double>(hops) * delay.sec() + 1.0));
  const double ns = ns_since(t0);
  source.cancel();
  g_sink = static_cast<double>(delivered);
  if (delivered == 0) return 0.0;
  return ns / static_cast<double>(delivered * hops);
}

double corelite_marker_ns(const corelite::qos::CoreliteConfig& cfg,
                          const std::vector<double>& labels, std::size_t markers_per_epoch,
                          std::size_t markers) {
  sim::Rng rng{1};
  corelite::qos::StatelessSelector sel{cfg.rav_gain, cfg.wav_gain, rng, cfg.eligibility_factor};
  std::uint64_t echoed = 0;
  const corelite::qos::MarkerSelector::FeedbackFn fb = [&echoed](const net::MarkerInfo&) {
    ++echoed;
  };
  net::MarkerInfo m;
  m.edge_router = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < markers; ++i) {
    m.flow = static_cast<net::FlowId>(1 + i % labels.size());
    m.normalized_rate = labels[i % labels.size()];
    sel.on_marker(m, fb);
    if ((i + 1) % markers_per_epoch == 0) {
      sel.on_epoch(0.1 * static_cast<double>(markers_per_epoch), fb);
    }
  }
  const double ns = ns_since(t0);
  g_sink = static_cast<double>(echoed);
  return ns / static_cast<double>(markers);
}

double csfq_admit_ns(const corelite::csfq::CsfqConfig& cfg, double capacity_pps,
                     const std::vector<double>& labels, std::size_t packets) {
  sim::Rng rng{1};
  corelite::csfq::CsfqLinkPolicy policy{cfg, capacity_pps, rng};
  net::Packet p;
  p.kind = net::PacketKind::Data;
  p.size = sim::DataSize::kilobytes(1);
  const double gap = 1.0 / (1.25 * capacity_pps);
  std::uint64_t admitted = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < packets; ++i) {
    p.flow = static_cast<net::FlowId>(1 + i % labels.size());
    p.label = labels[i % labels.size()];
    admitted += policy.admit(p, sim::SimTime::seconds(gap * static_cast<double>(i))) ? 1 : 0;
  }
  const double ns = ns_since(t0);
  g_sink = static_cast<double>(admitted);
  return ns / static_cast<double>(packets);
}

double water_fill_us(const std::vector<double>& capacity,
                     const std::vector<sim::fluid::AllocFlow>& flows, std::size_t calls) {
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    const auto rates = sim::fluid::water_fill(capacity, flows);
    acc += rates.empty() ? 0.0 : rates.front();
  }
  const double ns = ns_since(t0);
  g_sink = acc;
  return ns / 1000.0 / static_cast<double>(calls);
}

}  // namespace perfbench
