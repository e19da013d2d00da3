// A unidirectional link: output queue + transmitter + propagation pipe.
//
// The upstream node hands packets to Link::send().  The link runs an
// admission policy (pluggable — CSFQ's probabilistic dropper lives here),
// queues accepted packets, serializes them at the link rate and delivers
// them to the downstream node after the propagation delay.
//
// Observers see every enqueue / drop / dequeue plus each change of the
// data queue length; Corelite's congestion estimator and marker selector
// attach as observers without the link knowing anything about them —
// the forwarding plane stays QoS-agnostic, as the paper requires.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/queue.h"
#include "net/types.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace corelite::net {

class Network;
class Link;

/// Decides, per packet, whether a link accepts it (and may rewrite its
/// label).  Used by CSFQ core routers.  Data packets only; control
/// packets are always admitted.
class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  /// Return true to accept.  May mutate `p` (e.g. CSFQ relabeling).
  [[nodiscard]] virtual bool admit(Packet& p, sim::SimTime now) = 0;
};

/// Passive tap on a link's queue activity.
class LinkObserver {
 public:
  virtual ~LinkObserver() = default;
  virtual void on_enqueue(const Packet&, sim::SimTime) {}
  virtual void on_drop(const Packet&, sim::SimTime) {}
  virtual void on_dequeue(const Packet&, sim::SimTime) {}
  /// Fired whenever the number of queued data packets changes.
  virtual void on_queue_length(std::size_t /*data_packets*/, sim::SimTime) {}
  /// Fired from the link's destructor while the observer is still
  /// attached.  Observers that can outlive the network (tracers,
  /// telemetry collectors) null their Link* here instead of detaching
  /// from a dead link later.
  virtual void on_link_destroyed(Link& /*link*/) {}
};

class Link {
 public:
  /// Observer interest mask.  Observers register for only the callbacks
  /// they override; the link keeps one list per event kind, so a packet
  /// passing an observed link never pays a virtual dispatch to a no-op
  /// default method (~1M wasted calls on a 60 s 80-flow run).
  enum ObserverEvents : unsigned {
    kObserveEnqueue = 1u << 0,
    kObserveDrop = 1u << 1,
    kObserveDequeue = 1u << 2,
    kObserveQueueLength = 1u << 3,
    kObserveAll = 0xFu,
  };

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;          ///< data packets dropped
    std::uint64_t dropped_control = 0;  ///< injected control-loss drops
    std::uint64_t delivered = 0;        ///< packets handed to the peer node
    std::uint64_t data_delivered = 0;   ///< data packets only
    sim::DataSize data_bytes_delivered;
  };

  Link(sim::Simulator& simulator, Network& network, NodeId from, NodeId to, sim::Rate rate,
       sim::TimeDelta propagation_delay, std::unique_ptr<PacketQueue> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Notifies every still-attached observer via on_link_destroyed().
  ~Link();

  /// Entry point for the upstream node.  Runs admission, queues, and
  /// (if the transmitter is idle) starts serialization.
  void send(Packet&& p);

  [[nodiscard]] NodeId from() const { return from_; }
  [[nodiscard]] NodeId to() const { return to_; }
  [[nodiscard]] sim::Rate rate() const { return rate_; }
  [[nodiscard]] sim::TimeDelta propagation_delay() const { return prop_delay_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queued_data_packets() const { return queue_->data_packet_count(); }
  [[nodiscard]] PacketQueue& queue() { return *queue_; }

  /// Install the (single) admission policy.  Pass nullptr to remove.
  void set_admission(AdmissionPolicy* policy) { admission_ = policy; }

  /// Failure injection: drop each CONTROL packet (markers, feedback,
  /// loss notices, ACKs) with this probability.  Models corrupted or
  /// lost signalling headers; data packets are unaffected.  Default 0.
  void set_control_loss_rate(double p) { control_loss_rate_ = p; }
  [[nodiscard]] double control_loss_rate() const { return control_loss_rate_; }

  /// Attach a passive observer for the events in `events`.  Observers
  /// must either outlive the link or detach themselves with
  /// remove_observer() before destruction.  Passing a narrow mask keeps
  /// the unobserved dispatch points on their zero-cost fast path.
  void add_observer(LinkObserver* obs, unsigned events = kObserveAll) {
    if ((events & kObserveEnqueue) != 0) enqueue_obs_.push_back(obs);
    if ((events & kObserveDrop) != 0) drop_obs_.push_back(obs);
    if ((events & kObserveDequeue) != 0) dequeue_obs_.push_back(obs);
    if ((events & kObserveQueueLength) != 0) qlen_obs_.push_back(obs);
  }

  /// Detach a previously attached observer from every event list.
  /// No-op if absent.
  void remove_observer(LinkObserver* obs) {
    std::erase(enqueue_obs_, obs);
    std::erase(drop_obs_, obs);
    std::erase(dequeue_obs_, obs);
    std::erase(qlen_obs_, obs);
  }

 private:
  void start_transmission();
  void on_serialized(PooledPacket p);
  bool dequeue_next(PooledPacket& p);
  void notify_queue_length();
  void notify_drop(const Packet& p, sim::SimTime now);

  sim::Simulator& sim_;
  Network& net_;
  /// The upstream LP's packet pool (the network's only pool in legacy
  /// mode).  Pools are single-threaded; a link only ever touches its
  /// own LP's.
  PacketPool& pool_;
  NodeId from_;
  NodeId to_;
  /// Cut-link marker: endpoints live in different LPs, so propagation
  /// completions become cross-LP mailbox messages instead of local
  /// events.  Always false in legacy mode.
  bool cross_lp_ = false;
  std::uint32_t lp_from_ = 0;
  sim::Rate rate_;
  sim::TimeDelta prop_delay_;
  std::unique_ptr<PacketQueue> queue_;
  AdmissionPolicy* admission_ = nullptr;
  // One observer list per event kind (see ObserverEvents).
  std::vector<LinkObserver*> enqueue_obs_;
  std::vector<LinkObserver*> drop_obs_;
  std::vector<LinkObserver*> dequeue_obs_;
  std::vector<LinkObserver*> qlen_obs_;
  Stats stats_;
  double control_loss_rate_ = 0.0;
  bool busy_ = false;
};

}  // namespace corelite::net
