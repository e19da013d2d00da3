#include "sim/event_queue.h"

#include <utility>

namespace corelite::sim {

EventHandle EventQueue::schedule(SimTime at, Callback cb) {
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  if (slot >= states_.size()) states_.resize(slots_.size());
  states_[slot] = std::make_shared<EventHandle::State>();
  EventHandle handle{states_[slot]};
  push_entry(at.sec(), slot, /*cancellable=*/true);
  return handle;
}

void EventQueue::clear() {
  const auto discard = [this](const Entry& e) {
    const auto slot = static_cast<std::uint32_t>(e.key & kSlotMask);
    if ((e.key & kCancellableBit) != 0) {
      // Outstanding handles must not report pending() forever.
      states_[slot]->cancelled = true;
      states_[slot].reset();
    }
    slots_[slot].cb.reset();
    free_slots_.push_back(slot);
  };
  for (const Entry& e : heap_) discard(e);
  heap_.clear();
  // The consumed prefix of the buffer was already recycled on pop.
  for (std::size_t i = buf_pos_; i < buffer_.size(); ++i) discard(buffer_[i]);
  buffer_.clear();
  buf_pos_ = 0;
  std::vector<Entry> pending;
  wheel_.drain_all(pending);
  for (const Entry& e : pending) discard(e);
}

}  // namespace corelite::sim
