// The simulation topology of the paper (Figure 2).
//
// Four core routers C1-C2-C3-C4 in a chain; the three core links are
// the (potentially) congested links.  Every flow gets its own ingress
// edge router attached to its entry core router and its own egress node
// attached to its exit core router.  All links are 4 Mbps (500 pkt/s
// at 1 KB packets) with 40 ms propagation delay, giving the paper's
// round-trip times of 240/320/400 ms for flows crossing 1/2/3
// congested links.
//
// Flow-to-path assignment (paper §4.1, flow ids 1-based):
//   1-5   : C1 -> C2          (single congested link, RTT 240 ms)
//   6-8   : C1 -> C3          (two congested links,   RTT 320 ms)
//   9-10  : C1 -> C4          (three congested links, RTT 400 ms)
//   11-12 : C2 -> C3          (single)
//   13-15 : C2 -> C4          (two)
//   16-20 : C3 -> C4          (single)
// Ids beyond 20 cycle over the three single-link spans.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "net/choke_queue.h"
#include "net/fred_queue.h"
#include "net/network.h"
#include "net/sfq_queue.h"
#include "net/queue.h"
#include "net/types.h"
#include "net/wfq_queue.h"
#include "sim/units.h"

namespace corelite::scenario {

/// Queue discipline a core link runs (see connect_core_directed).
enum class CoreQueueKind {
  DropTail,  ///< paper default
  Red,       ///< related-work baseline (Floyd & Jacobson)
  Fred,      ///< related-work baseline (Lin & Morris)
  Wfq,       ///< Intserv-style stateful reference (weighted fair queueing)
  Choke,     ///< CHOKe stateless AQM (Pan, Prabhakar & Psounis)
  Sfq,       ///< stochastic fair queueing: hashed round-robin bands
};

struct PaperTopologyConfig {
  sim::Rate link_rate = sim::Rate::mbps(4);
  sim::TimeDelta link_delay = sim::TimeDelta::millis(40);
  std::size_t queue_capacity_packets = 40;
  sim::DataSize packet_size = sim::DataSize::kilobytes(1);
  CoreQueueKind core_queue = CoreQueueKind::DropTail;
  net::RedQueue::Config red{};
  net::FredQueue::Config fred{};
  net::ChokeQueue::Config choke{};
  /// Stochastic-fair-queueing band count (per-band capacity is
  /// queue_capacity_packets / bands, floor 2).
  std::size_t sfq_bands = 16;
  /// Per-flow weights for CoreQueueKind::Wfq — the per-flow state a
  /// stateful core carries.
  net::WfqQueue::WeightFn wfq_weight_of{};
};

/// One unidirectional router-router link running cfg's core queue
/// discipline at cfg's rate, delay and capacity.  Both topology builders
/// wire their discipline-bearing links through it.
net::Link& connect_core_directed(net::Network& network, net::NodeId from, net::NodeId to,
                                 const PaperTopologyConfig& cfg);

struct FlowEndpoints {
  net::NodeId ingress = net::kInvalidNode;
  net::NodeId egress = net::kInvalidNode;
  std::size_t entry_core = 0;
  std::size_t exit_core = 0;
};

class PaperTopology {
 public:
  static constexpr std::size_t kCoreCount = 4;
  static constexpr std::size_t kCongestedLinks = 3;  // C1C2, C2C3, C3C4

  /// Builds nodes and duplex links into `network` for flows 1..num_flows.
  /// Call network.build_routes() afterwards.
  ///
  /// `core_lp`, when non-null, pins core i to LP core_lp[i] (parallel
  /// engine); each flow's attach nodes follow its entry/exit core so
  /// only the three inter-core links can become cut links.  Null keeps
  /// everything on LP 0 (the legacy single-universe layout).
  PaperTopology(net::Network& network, std::size_t num_flows, PaperTopologyConfig cfg = {},
                const std::vector<std::uint32_t>* core_lp = nullptr);

  /// (entry core index, exit core index) for 1-based flow id.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> core_span(net::FlowId flow_1based);

  /// Indices (0..2) of congested core links the flow traverses.
  [[nodiscard]] static std::vector<std::size_t> congested_links(net::FlowId flow_1based);

  [[nodiscard]] net::NodeId core(std::size_t i) const { return cores_.at(i); }
  [[nodiscard]] const std::vector<net::NodeId>& cores() const { return cores_; }
  [[nodiscard]] const FlowEndpoints& endpoints(net::FlowId flow_1based) const {
    return endpoints_.at(flow_1based - 1);
  }
  [[nodiscard]] std::size_t num_flows() const { return endpoints_.size(); }

  /// Forward link of congested span i (core[i] -> core[i+1]).
  [[nodiscard]] net::Link* congested_link(net::Network& network, std::size_t i) const;

  /// Link capacity in packets per second (500 for the defaults).
  [[nodiscard]] double capacity_pps() const {
    return cfg_.link_rate.pps(cfg_.packet_size);
  }

  [[nodiscard]] const PaperTopologyConfig& config() const { return cfg_; }

 private:
  PaperTopologyConfig cfg_;
  std::vector<net::NodeId> cores_;
  std::vector<FlowEndpoints> endpoints_;
};

}  // namespace corelite::scenario
