// Virtual-time packet-lifecycle tracks for the Chrome trace exporter.
//
// A LinkTraceCollector attaches to links as a passive observer and
// renders each link as one track (thread) of the virtual-time process:
//   - a "wait" span from enqueue to dequeue (time spent queued),
//   - a "tx" span from dequeue for the serialization time,
//   - an instant event per drop, and
//   - a queue-depth counter series sampled at every length change.
// Simulated seconds map to trace microseconds, so Perfetto's timeline
// reads directly in simulated time.
//
// Lifetime: the collector detaches from links it outlives and — via
// LinkObserver::on_link_destroyed — survives links that die first, so
// the owning binary can hold it across a run_paper_scenario() call
// whose network is torn down internally.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.h"
#include "telemetry/trace.h"

namespace corelite::telemetry {

class LinkTraceCollector {
 public:
  explicit LinkTraceCollector(TraceWriter& out, int pid = TraceWriter::kVirtualPid);

  LinkTraceCollector(const LinkTraceCollector&) = delete;
  LinkTraceCollector& operator=(const LinkTraceCollector&) = delete;

  /// Detaches from every link still alive.
  ~LinkTraceCollector();

  /// Start tracing a link; its track is named "from->to".
  void attach(net::Link& link);

  [[nodiscard]] std::size_t attached_links() const { return shims_.size(); }

 private:
  struct Shim final : net::LinkObserver {
    LinkTraceCollector* owner = nullptr;
    net::Link* link = nullptr;
    int tid = 0;
    std::string counter_name;
    /// uid -> enqueue timestamp (simulated µs); erased on dequeue.
    std::unordered_map<std::uint64_t, double> pending;

    void on_enqueue(const net::Packet& p, sim::SimTime now) override;
    void on_dequeue(const net::Packet& p, sim::SimTime now) override;
    void on_drop(const net::Packet& p, sim::SimTime now) override;
    void on_queue_length(std::size_t data_packets, sim::SimTime now) override;
    void on_link_destroyed(net::Link& l) override;
  };

  TraceWriter& out_;
  int pid_;
  int next_tid_ = 1;
  std::vector<std::unique_ptr<Shim>> shims_;
};

}  // namespace corelite::telemetry
