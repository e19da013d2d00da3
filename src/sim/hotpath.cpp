#include "sim/hotpath.h"

#include <atomic>
#include <cstddef>
#include <iterator>

namespace corelite::sim {

namespace {

// Every counter field, in declaration order, under the name the manifest
// and the --profile table print.  flush/aggregate/reset walk this table
// too, so adding a counter is a two-line change (struct + here).
#define CORELITE_FIELD(f) HotPathField{#f, &HotPathCounters::f}
constexpr HotPathField kFields[] = {
    CORELITE_FIELD(exp_calls),
    CORELITE_FIELD(rng_draws),
    CORELITE_FIELD(observer_dispatches),
    CORELITE_FIELD(series_appends),
    CORELITE_FIELD(wheel_inserts),
    CORELITE_FIELD(wheel_cascades),
    CORELITE_FIELD(heap_inserts),
    CORELITE_FIELD(batch_drained),
    CORELITE_FIELD(lp_barriers),
    CORELITE_FIELD(cross_lp_events),
    CORELITE_FIELD(mailbox_flushes),
    CORELITE_FIELD(lookahead_ns),
    CORELITE_FIELD(drops_admission),
    CORELITE_FIELD(drops_control_loss),
    CORELITE_FIELD(drops_queue_full),
    CORELITE_FIELD(drops_queue_internal),
    CORELITE_FIELD(markers_seen),
    CORELITE_FIELD(feedback_sent),
    CORELITE_FIELD(relabels),
};
#undef CORELITE_FIELD
constexpr std::size_t kNumFields = std::size(kFields);
// A field missing from the table would silently never be flushed.
static_assert(sizeof(HotPathCounters) == kNumFields * sizeof(std::uint64_t),
              "every HotPathCounters field must be listed in kFields");

std::atomic<std::uint64_t> g_aggregate[kNumFields];

}  // namespace

std::span<const HotPathField> hotpath_fields() { return kFields; }

void flush_hotpath_counters() {
  HotPathCounters& c = hotpath_counters();
  for (std::size_t i = 0; i < kNumFields; ++i) {
    g_aggregate[i].fetch_add(c.*kFields[i].member, std::memory_order_relaxed);
  }
  c = HotPathCounters{};
}

HotPathCounters aggregated_hotpath_counters() {
  HotPathCounters out = hotpath_counters();
  for (std::size_t i = 0; i < kNumFields; ++i) {
    out.*kFields[i].member += g_aggregate[i].load(std::memory_order_relaxed);
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
