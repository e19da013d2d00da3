#include "scenario/paper_topology.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>

namespace corelite::scenario {

net::Link& connect_core_directed(net::Network& network, net::NodeId from, net::NodeId to,
                                 const PaperTopologyConfig& q) {
  // AQM queues draw from the link's owning simulator's RNG (the from
  // node's LP): serially that is the one global stream; in LP mode it
  // keeps every draw single-threaded.
  switch (q.core_queue) {
    case CoreQueueKind::Red: {
      auto red_cfg = q.red;
      red_cfg.capacity_data_packets = q.queue_capacity_packets;
      return network.connect_with_queue(
          from, to, q.link_rate, q.link_delay,
          std::make_unique<net::RedQueue>(red_cfg, network.local_rng(from)));
    }
    case CoreQueueKind::Fred: {
      auto fred_cfg = q.fred;
      fred_cfg.capacity_data_packets = q.queue_capacity_packets;
      return network.connect_with_queue(
          from, to, q.link_rate, q.link_delay,
          std::make_unique<net::FredQueue>(fred_cfg, network.local_rng(from)));
    }
    case CoreQueueKind::Choke: {
      auto choke_cfg = q.choke;
      choke_cfg.capacity_data_packets = q.queue_capacity_packets;
      return network.connect_with_queue(
          from, to, q.link_rate, q.link_delay,
          std::make_unique<net::ChokeQueue>(choke_cfg, network.local_rng(from)));
    }
    case CoreQueueKind::Sfq: {
      const std::size_t per_band =
          std::max<std::size_t>(2, q.queue_capacity_packets / q.sfq_bands);
      return network.connect_with_queue(from, to, q.link_rate, q.link_delay,
                                        std::make_unique<net::SfqQueue>(q.sfq_bands, per_band));
    }
    case CoreQueueKind::Wfq:
      return network.connect_with_queue(
          from, to, q.link_rate, q.link_delay,
          std::make_unique<net::WfqQueue>(q.queue_capacity_packets, q.wfq_weight_of));
    case CoreQueueKind::DropTail:
      break;
  }
  return network.connect(from, to, q.link_rate, q.link_delay, q.queue_capacity_packets);
}

std::pair<std::size_t, std::size_t> PaperTopology::core_span(net::FlowId flow_1based) {
  assert(flow_1based >= 1);
  const auto f = flow_1based;
  if (f <= 5) return {0, 1};
  if (f <= 8) return {0, 2};
  if (f <= 10) return {0, 3};
  if (f <= 12) return {1, 2};
  if (f <= 15) return {1, 3};
  if (f <= 20) return {2, 3};
  // Beyond the paper's 20 flows: cycle across the single-link spans.
  const std::size_t span = (f - 21) % kCongestedLinks;
  return {span, span + 1};
}

std::vector<std::size_t> PaperTopology::congested_links(net::FlowId flow_1based) {
  const auto [entry, exit] = core_span(flow_1based);
  std::vector<std::size_t> out;
  for (std::size_t i = entry; i < exit; ++i) out.push_back(i);
  return out;
}

PaperTopology::PaperTopology(net::Network& network, std::size_t num_flows,
                             PaperTopologyConfig cfg,
                             const std::vector<std::uint32_t>* core_lp)
    : cfg_{cfg} {
  assert(core_lp == nullptr || core_lp->size() >= kCoreCount);
  const auto lp_of_core = [core_lp](std::size_t i) {
    return core_lp != nullptr ? (*core_lp)[i] : 0u;
  };
  for (std::size_t i = 0; i < kCoreCount; ++i) {
    cores_.push_back(network.add_node("C" + std::to_string(i + 1), lp_of_core(i)));
  }
  for (std::size_t i = 0; i + 1 < kCoreCount; ++i) {
    // The forward (congested) direction runs the configured discipline;
    // the reverse direction carries only control traffic and stays
    // drop-tail.
    connect_core_directed(network, cores_[i], cores_[i + 1], cfg_);
    network.connect(cores_[i + 1], cores_[i], cfg_.link_rate, cfg_.link_delay,
                    cfg_.queue_capacity_packets);
  }
  endpoints_.reserve(num_flows);
  for (std::size_t f = 1; f <= num_flows; ++f) {
    const auto [entry, exit] = core_span(static_cast<net::FlowId>(f));
    FlowEndpoints ep;
    ep.entry_core = entry;
    ep.exit_core = exit;
    ep.ingress = network.add_node("E" + std::to_string(f) + "in", lp_of_core(entry));
    ep.egress = network.add_node("E" + std::to_string(f) + "out", lp_of_core(exit));
    network.connect_duplex(ep.ingress, cores_[entry], cfg_.link_rate, cfg_.link_delay,
                           cfg_.queue_capacity_packets);
    network.connect_duplex(cores_[exit], ep.egress, cfg_.link_rate, cfg_.link_delay,
                           cfg_.queue_capacity_packets);
    endpoints_.push_back(ep);
  }
}

net::Link* PaperTopology::congested_link(net::Network& network, std::size_t i) const {
  assert(i + 1 < kCoreCount);
  return network.find_link(cores_[i], cores_[i + 1]);
}

}  // namespace corelite::scenario
