#include "sim/hotpath.h"

#include <atomic>
#include <cstddef>
#include <iterator>

namespace corelite::sim {

namespace {

// Every counter field, in declaration order.  flush/aggregate/reset walk
// this table so adding a counter is a two-line change (struct + here).
constexpr std::uint64_t HotPathCounters::* kFields[] = {
    &HotPathCounters::exp_calls,           &HotPathCounters::rng_draws,
    &HotPathCounters::observer_dispatches, &HotPathCounters::series_appends,
    &HotPathCounters::wheel_inserts,       &HotPathCounters::wheel_cascades,
    &HotPathCounters::heap_inserts,        &HotPathCounters::batch_drained,
    &HotPathCounters::lp_barriers,         &HotPathCounters::cross_lp_events,
    &HotPathCounters::mailbox_flushes,     &HotPathCounters::lookahead_ns,
};
constexpr std::size_t kNumFields = std::size(kFields);
// A field missing from the table would silently never be flushed.
static_assert(sizeof(HotPathCounters) == kNumFields * sizeof(std::uint64_t),
              "every HotPathCounters field must be listed in kFields");

std::atomic<std::uint64_t> g_aggregate[kNumFields];

}  // namespace

void flush_hotpath_counters() {
  HotPathCounters& c = hotpath_counters();
  for (std::size_t i = 0; i < kNumFields; ++i) {
    g_aggregate[i].fetch_add(c.*kFields[i], std::memory_order_relaxed);
  }
  c = HotPathCounters{};
}

HotPathCounters aggregated_hotpath_counters() {
  HotPathCounters out = hotpath_counters();
  for (std::size_t i = 0; i < kNumFields; ++i) {
    out.*kFields[i] += g_aggregate[i].load(std::memory_order_relaxed);
  }
  return out;
}

void reset_hotpath_counters() {
  hotpath_counters() = HotPathCounters{};
  for (std::size_t i = 0; i < kNumFields; ++i) {
    g_aggregate[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace corelite::sim
