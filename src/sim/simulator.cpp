#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace corelite::sim {

EventHandle Simulator::at(SimTime at, EventQueue::Callback cb) {
  assert(at >= now_ && "cannot schedule an event in the past");
  return queue_.schedule(at, std::move(cb));
}

EventHandle Simulator::after(TimeDelta delay, EventQueue::Callback cb) {
  assert(delay >= TimeDelta::zero());
  return at(now_ + delay, std::move(cb));
}

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  // run_next_until peeks the queue front once per event and advances the
  // clock to the fire time just before the callback observes now().
  const auto set_clock = [this](SimTime t) { now_ = t; };
  while (!stopped_) {
    if (!queue_.run_next_until(deadline, set_clock).is_finite()) break;
    ++processed_;
  }
  if (!stopped_ && now_ < deadline && deadline < SimTime::infinite()) now_ = deadline;
}

void Simulator::run() { run_until(SimTime::infinite()); }

}  // namespace corelite::sim
