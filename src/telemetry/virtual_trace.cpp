#include "telemetry/virtual_trace.h"

#include <string>

#include "net/tracer.h"

namespace corelite::telemetry {

namespace {

constexpr double kUsPerSec = 1e6;

std::string span_name(const net::Packet& p) {
  std::string name{net::packet_kind_name(p.kind)};
  name += " f";
  name += std::to_string(p.flow);
  return name;
}

}  // namespace

LinkTraceCollector::LinkTraceCollector(TraceWriter& out, int pid) : out_{out}, pid_{pid} {
  out_.set_process_name(pid_, "virtual time (simulated µs)");
}

LinkTraceCollector::~LinkTraceCollector() {
  for (auto& s : shims_) {
    if (s->link != nullptr) s->link->remove_observer(s.get());
  }
}

void LinkTraceCollector::attach(net::Link& link) {
  auto shim = std::make_unique<Shim>();
  shim->owner = this;
  shim->link = &link;
  shim->tid = next_tid_++;
  const std::string track =
      std::to_string(link.from()) + "->" + std::to_string(link.to());
  shim->counter_name = "queue " + track;
  out_.set_thread_name(pid_, shim->tid, "link " + track);
  link.add_observer(shim.get(), net::Link::kObserveAll);
  shims_.push_back(std::move(shim));
}

void LinkTraceCollector::Shim::on_enqueue(const net::Packet& p, sim::SimTime now) {
  pending[p.uid] = now.sec() * kUsPerSec;
}

void LinkTraceCollector::Shim::on_dequeue(const net::Packet& p, sim::SimTime now) {
  const double ts = now.sec() * kUsPerSec;
  if (const auto it = pending.find(p.uid); it != pending.end()) {
    const double wait = ts - it->second;
    owner->out_.add_complete(owner->pid_, tid, span_name(p), "queue", it->second, wait);
    pending.erase(it);
  }
  if (link != nullptr) {
    const double ser = link->rate().serialization_time(p.size).sec() * kUsPerSec;
    owner->out_.add_complete(owner->pid_, tid, span_name(p), "tx", ts, ser, "size_bytes",
                             static_cast<double>(p.size.byte_count()));
  }
}

void LinkTraceCollector::Shim::on_drop(const net::Packet& p, sim::SimTime now) {
  pending.erase(p.uid);
  owner->out_.add_instant(owner->pid_, tid, "drop " + span_name(p), "drop",
                          now.sec() * kUsPerSec);
}

void LinkTraceCollector::Shim::on_queue_length(std::size_t data_packets, sim::SimTime now) {
  owner->out_.add_counter(owner->pid_, counter_name, now.sec() * kUsPerSec, "packets",
                          static_cast<double>(data_packets));
}

void LinkTraceCollector::Shim::on_link_destroyed(net::Link& /*l*/) { link = nullptr; }

}  // namespace corelite::telemetry
