// Event-engine microbenchmark: events/sec and heap allocations/event.
//
// The paper's experiments are million-event runs; the engine exists to
// make those cheap.  This bench measures the three layers that matter:
//   1. raw schedule/fire throughput of detached events with realistic
//      (24-byte) captures — the forwarding plane's bread and butter,
//   2. the same loop through handle-keeping schedule(), isolating the
//      cost of the cancellation control block,
//   3. steady-state packet forwarding on a live link, asserting the
//      zero-allocations-per-hop property end to end,
//   4. the 80-flow scale_flows rows (wall clock), tying the micro
//      numbers back to a full scenario.
//
// Results go to stdout and, machine-readable, to
// BENCH_event_engine.json in the working directory.  The baseline
// constants below were measured on the pre-engine seed (std::function
// callbacks, shared_ptr packets, binary heap of fat entries) on the
// same reference machine, so the JSON also carries the speedup ratios
// the acceptance criteria quote.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include "net/network.h"
#include "scenario/scenario.h"
#include "sim/hotpath.h"
#include "sim/simulator.h"

// ---------------------------------------------------------------------------
// Allocation counting: replace global new/delete for this binary.

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_frees = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept {
  ++g_frees;
  std::free(p);
}
void operator delete[](void* p) noexcept {
  ++g_frees;
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  ++g_frees;
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  ++g_frees;
  std::free(p);
}

namespace {

namespace sim = corelite::sim;
namespace net = corelite::net;
namespace sc = corelite::scenario;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

// Seed-engine reference numbers (same machine, Release build):
//   - 2M detached-equivalent events, 8 chains, 24-byte captures:
//     11.39M events/s at 2.00 allocs/event (std::function heap copy +
//     shared_ptr control block per event).
//   - scale_flows 80-flow rows: corelite 301.9 ms, csfq 224.8 ms wall.
// Captured by rebuilding the seed commit (a8dbe2f) in a worktree and
// alternating seed / pre-wheel (4d90153) / current cold fresh-process
// runs in one session (5 triples; medians) — the seed binary replays
// the IDENTICAL event sequence, so the rows compare the same workload.
// The pre-wheel engine measured 147.6 / 97.4 ms on the same triples
// (the wheel's contribution is that delta, the rest is the PR-2/3
// engine rewrite).  For a fresh comparison on different hardware,
// repeat the interleaved procedure rather than trusting frozen numbers.
constexpr double kSeedEventsPerSec = 11.39e6;
constexpr double kSeedAllocsPerEvent = 2.0;
constexpr double kSeedCorelite80WallMs = 301.9;
constexpr double kSeedCsfq80WallMs = 224.8;

constexpr std::uint64_t kEvents = 2'000'000;
constexpr std::size_t kChains = 8;

// Empirical schedule-delay distribution of the event engine's real
// traffic: 64 evenly spaced quantiles of the 670k schedule() deltas of a
// full csfq-80 scale row (60 s, weights i%3+1), captured with a
// temporary sampling hook on Simulator::at_detached.  The mass at 2 ms
// is propagation events, the 40 ms plateau is epoch/estimator timers,
// and the 37-67 ms spread is per-flow pacing (packet_size / rate for
// the weighted rate grid); ~3% of deltas are zero (same-instant
// handoffs, which the wheel declines to the heap by design).
constexpr double kCsfq80ScheduleDelays[64] = {
    0.000000000e+00, 0.000000000e+00, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.000000000e-03,
    2.000000000e-03, 2.000000000e-03, 2.000000000e-03, 2.631578947e-02,
    3.703703704e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.000000000e-02, 4.000000000e-02,
    4.000000000e-02, 4.000000000e-02, 4.166666667e-02, 4.347826087e-02,
    4.545454545e-02, 4.761904762e-02, 5.263157895e-02, 6.666666667e-02,
};
// Enough chains that the overflow heap's O(log n) actually bites when
// the wheel is disabled — a csfq-80 run keeps a few thousand timers
// pending, so this is the population the engine really carries.
constexpr std::size_t kShortChains = 4096;
constexpr std::uint64_t kShortEvents = 4'000'000;
constexpr std::uint64_t kShortWarmup = 200'000;
// Wall time of a scale row is the median of this many back-to-back
// runs: single cold runs on a shared box carry +-15 ms of scheduler
// noise, which is the same order as the margin being measured.
constexpr int kRowRepeats = 5;

struct LoopResult {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
};

// One self-rescheduling chain of detached events.  The capture is
// 24 bytes — the size of a link-completion closure — and lives inline
// in the event slot.
void arm_detached(sim::Simulator& s, std::uint64_t& fired, std::uint64_t limit) {
  s.after_detached(sim::TimeDelta::micros(1), [&s, &fired, limit] {
    if (++fired < limit) arm_detached(s, fired, limit);
  });
}

LoopResult run_detached_loop() {
  sim::Simulator s;
  std::uint64_t fired = 0;
  // Warm the slot pool and heap storage before counting.
  arm_detached(s, fired, 1024);
  s.run();
  fired = 0;

  const std::uint64_t allocs0 = g_allocs;
  const double t0 = now_seconds();
  for (std::size_t c = 0; c < kChains; ++c) arm_detached(s, fired, kEvents);
  s.run();
  const double wall = now_seconds() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;

  LoopResult r;
  r.events = fired;
  r.events_per_sec = static_cast<double>(fired) / wall;
  r.allocs_per_event = static_cast<double>(allocs) / static_cast<double>(fired);
  return r;
}

void arm_handled(sim::Simulator& s, std::uint64_t& fired, std::uint64_t limit) {
  (void)s.after(sim::TimeDelta::micros(1), [&s, &fired, limit] {
    if (++fired < limit) arm_handled(s, fired, limit);
  });
}

LoopResult run_handled_loop() {
  sim::Simulator s;
  std::uint64_t fired = 0;
  arm_handled(s, fired, 1024);
  s.run();
  fired = 0;

  const std::uint64_t allocs0 = g_allocs;
  const double t0 = now_seconds();
  for (std::size_t c = 0; c < kChains; ++c) arm_handled(s, fired, kEvents);
  s.run();
  const double wall = now_seconds() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;

  LoopResult r;
  r.events = fired;
  r.events_per_sec = static_cast<double>(fired) / wall;
  r.allocs_per_event = static_cast<double>(allocs) / static_cast<double>(fired);
  return r;
}

// One self-rescheduling chain whose delays walk the empirical table via
// a Weyl sequence (deterministic, per-chain phase) — the short-horizon
// traffic shape the timing wheel exists for.
void arm_short(sim::Simulator& s, std::uint64_t& fired, std::uint64_t limit, std::uint32_t phase) {
  const double d = kCsfq80ScheduleDelays[phase >> 26];
  s.after_detached(sim::TimeDelta::seconds(d), [&s, &fired, limit, phase] {
    if (++fired < limit) arm_short(s, fired, limit, phase + 0x9E3779B9u);
  });
}

struct ShortHorizonResult {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double allocs_per_event = 0.0;
  double wheel_insert_rate = 0.0;   ///< share of events the wheel absorbed
  double cascades_per_event = 0.0;
};

ShortHorizonResult run_short_horizon(bool wheel_on) {
  // EventQueue reads the escape hatch at construction, so toggling the
  // environment here compares both engines inside one process.
  if (wheel_on) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  sim::Simulator s;
  std::uint64_t fired = 0;
  // Warmup materializes the slot pool, the wheel's first level-1 lap
  // and the heap storage before counting.
  for (std::size_t c = 0; c < kShortChains; ++c) {
    arm_short(s, fired, kShortWarmup, static_cast<std::uint32_t>(c) * 0x61C88647u);
  }
  s.run();
  fired = 0;

  sim::reset_hotpath_counters();
  const std::uint64_t allocs0 = g_allocs;
  const double t0 = now_seconds();
  for (std::size_t c = 0; c < kShortChains; ++c) {
    arm_short(s, fired, kShortEvents, static_cast<std::uint32_t>(c) * 0x61C88647u);
  }
  s.run();
  const double wall = now_seconds() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;
  const sim::HotPathCounters ops = sim::aggregated_hotpath_counters();

  ShortHorizonResult r;
  r.events = fired;
  r.events_per_sec = static_cast<double>(fired) / wall;
  r.allocs_per_event = static_cast<double>(allocs) / static_cast<double>(fired);
  r.wheel_insert_rate = ops.wheel_insert_rate();
  r.cascades_per_event = static_cast<double>(ops.wheel_cascades) /
                         static_cast<double>(ops.wheel_inserts + ops.heap_inserts);
  unsetenv("CORELITE_NO_WHEEL");
  return r;
}

struct ForwardingResult {
  std::uint64_t hops = 0;
  std::uint64_t allocs = 0;
  double allocs_per_hop = 0.0;
  double hops_per_sec = 0.0;
};

// Saturate one 10 Mb/s link with 1 KB packets for 11 simulated seconds;
// after a 1 s warmup (pool slots, ring buffers and heap storage all
// materialized), the steady-state forwarding path must not touch the
// heap at all.
ForwardingResult run_forwarding_loop() {
  sim::Simulator s;
  net::Network network{s};
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  const sim::DataSize pkt = sim::DataSize::bytes(1000);
  const sim::Rate rate = sim::Rate::mbps(10);
  network.connect(a, b, rate, sim::TimeDelta::millis(1), 64);
  network.build_routes();

  std::uint64_t delivered = 0;
  network.node(b).set_local_sink([&delivered](net::Packet&&) { ++delivered; });

  // Inject at 99% of line rate so the queue stays shallow and bounded.
  const double dt = rate.serialization_time(pkt).sec() / 0.99;
  struct Pump {
    sim::Simulator& s;
    net::Network& network;
    net::NodeId a, b;
    sim::DataSize pkt;
    double dt;
    void fire() {
      net::Packet p;
      p.uid = network.next_packet_uid();
      p.flow = 1;
      p.src = a;
      p.dst = b;
      p.size = pkt;
      p.created = s.now();
      network.inject(a, std::move(p));
      s.after_detached(sim::TimeDelta::seconds(dt), [this] { fire(); });
    }
  };
  Pump pump{s, network, a, b, pkt, dt};
  pump.fire();

  s.run_until(sim::SimTime::seconds(1));  // warmup
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t delivered0 = delivered;
  const double t0 = now_seconds();
  s.run_until(sim::SimTime::seconds(11));
  const double wall = now_seconds() - t0;

  ForwardingResult r;
  r.hops = delivered - delivered0;
  r.allocs = g_allocs - allocs0;
  r.allocs_per_hop = static_cast<double>(r.allocs) / static_cast<double>(r.hops);
  r.hops_per_sec = static_cast<double>(r.hops) / wall;
  return r;
}

struct ScaleRow {
  double wall_ms = 0.0;          ///< median over kRowRepeats runs
  sim::HotPathCounters ops;      ///< op counts of one run (deterministic)
};

ScaleRow run_scale_row(sc::Mechanism mech, bool wheel_on = true) {
  if (wheel_on) {
    unsetenv("CORELITE_NO_WHEEL");
  } else {
    setenv("CORELITE_NO_WHEEL", "1", 1);
  }
  sc::ScenarioSpec spec;
  spec.mechanism = mech;
  spec.num_flows = 80;
  spec.duration = sim::SimTime::seconds(60);
  spec.weights.resize(80);
  for (std::size_t i = 0; i < 80; ++i) spec.weights[i] = static_cast<double>(i % 3 + 1);

  double walls[kRowRepeats];
  ScaleRow row;
  for (int rep = 0; rep < kRowRepeats; ++rep) {
    sim::reset_hotpath_counters();
    const double t0 = now_seconds();
    const auto r = sc::run_paper_scenario(spec);
    walls[rep] = (now_seconds() - t0) * 1e3;
    // Keep the run honest: the result must be materially the same workload.
    if (r.events_processed < 100000) std::abort();
    row.ops = sim::aggregated_hotpath_counters();
  }
  std::sort(walls, walls + kRowRepeats);
  row.wall_ms = walls[kRowRepeats / 2];
  unsetenv("CORELITE_NO_WHEEL");
  return row;
}

}  // namespace

int main() {
  std::printf("Event-engine microbenchmark (%llu events, %zu chains, 24-byte captures)\n\n",
              static_cast<unsigned long long>(kEvents), kChains);

  // Scenario rows first, before the hot loops heat the machine — the
  // seed reference numbers were captured the same way (fresh process).
  const ScaleRow row_cl = run_scale_row(sc::Mechanism::Corelite);
  const ScaleRow row_cs = run_scale_row(sc::Mechanism::Csfq);
  const ScaleRow row_cl_off = run_scale_row(sc::Mechanism::Corelite, /*wheel_on=*/false);
  const ScaleRow row_cs_off = run_scale_row(sc::Mechanism::Csfq, /*wheel_on=*/false);
  const double cl80 = row_cl.wall_ms;
  const double cs80 = row_cs.wall_ms;

  const LoopResult detached = run_detached_loop();
  std::printf("detached schedule/fire : %8.2f M events/s   %.4f allocs/event\n",
              detached.events_per_sec / 1e6, detached.allocs_per_event);

  const LoopResult handled = run_handled_loop();
  std::printf("handled schedule/fire  : %8.2f M events/s   %.4f allocs/event\n",
              handled.events_per_sec / 1e6, handled.allocs_per_event);

  const ShortHorizonResult sh_on = run_short_horizon(/*wheel_on=*/true);
  const ShortHorizonResult sh_off = run_short_horizon(/*wheel_on=*/false);
  const double sh_ratio = sh_on.events_per_sec / sh_off.events_per_sec;
  std::printf("short-horizon (wheel)  : %8.2f M events/s   %.4f allocs/event  "
              "(%.1f%% wheel, %.2f cascades/event)\n",
              sh_on.events_per_sec / 1e6, sh_on.allocs_per_event,
              sh_on.wheel_insert_rate * 100.0, sh_on.cascades_per_event);
  std::printf("short-horizon (heap)   : %8.2f M events/s   %.4f allocs/event  "
              "(wheel/heap ratio %.2fx)\n",
              sh_off.events_per_sec / 1e6, sh_off.allocs_per_event, sh_ratio);

  const ForwardingResult fwd = run_forwarding_loop();
  std::printf("forwarding steady state: %8.2f M hops/s     %.4f allocs/hop (%llu allocs / %llu hops)\n",
              fwd.hops_per_sec / 1e6, fwd.allocs_per_hop,
              static_cast<unsigned long long>(fwd.allocs),
              static_cast<unsigned long long>(fwd.hops));

  std::printf("scale_flows 80 flows   : corelite %.1f ms, csfq %.1f ms wall (median of %d; "
              "wheel off: %.1f / %.1f ms)\n",
              cl80, cs80, kRowRepeats, row_cl_off.wall_ms, row_cs_off.wall_ms);
  std::printf("hot-path ops (csfq-80) : %llu exp calls, %llu rng draws, "
              "%llu observer dispatches\n",
              static_cast<unsigned long long>(row_cs.ops.exp_calls),
              static_cast<unsigned long long>(row_cs.ops.rng_draws),
              static_cast<unsigned long long>(row_cs.ops.observer_dispatches));
  std::printf("wheel (csfq-80)        : %.1f%% wheel inserts, %llu cascades\n",
              row_cs.ops.wheel_insert_rate() * 100.0,
              static_cast<unsigned long long>(row_cs.ops.wheel_cascades));

  const double speedup_events = detached.events_per_sec / kSeedEventsPerSec;
  const double speedup_cl = kSeedCorelite80WallMs / cl80;
  const double speedup_cs = kSeedCsfq80WallMs / cs80;
  std::printf("\nvs seed engine         : %.2fx events/s, %.2fx corelite-80, %.2fx csfq-80\n",
              speedup_events, speedup_cl, speedup_cs);

  std::FILE* json = std::fopen("BENCH_event_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"detached_schedule_fire\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"allocs_per_event\": %.6f\n"
                 "  },\n"
                 "  \"handled_schedule_fire\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"allocs_per_event\": %.6f\n"
                 "  },\n"
                 "  \"short_horizon\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"chains\": %zu,\n"
                 "    \"delay_distribution\": \"64-quantile table sampled from a real csfq-80 "
                 "run (see kCsfq80ScheduleDelays)\",\n"
                 "    \"wheel_on_events_per_sec\": %.0f,\n"
                 "    \"wheel_off_events_per_sec\": %.0f,\n"
                 "    \"wheel_over_heap_ratio\": %.3f,\n"
                 "    \"wheel_insert_rate\": %.3f,\n"
                 "    \"cascades_per_event\": %.3f,\n"
                 "    \"allocs_per_event_wheel_on\": %.6f\n"
                 "  },\n"
                 "  \"forwarding_steady_state\": {\n"
                 "    \"hops\": %llu,\n"
                 "    \"allocs\": %llu,\n"
                 "    \"allocs_per_hop\": %.6f,\n"
                 "    \"hops_per_sec\": %.0f\n"
                 "  },\n"
                 "  \"scale_flows_80\": {\n"
                 "    \"corelite_wall_ms\": %.1f,\n"
                 "    \"csfq_wall_ms\": %.1f,\n"
                 "    \"corelite_wall_ms_wheel_off\": %.1f,\n"
                 "    \"csfq_wall_ms_wheel_off\": %.1f,\n"
                 "    \"row_repeats\": %d,\n"
                 "    \"row_statistic\": \"median\"\n"
                 "  },\n"
                 "  \"hot_path_counters\": {\n"
                 "    \"corelite_80\": {\n"
                 "      \"exp_calls\": %llu,\n"
                 "      \"rng_draws\": %llu,\n"
                 "      \"observer_dispatches\": %llu,\n"
                 "      \"series_appends\": %llu,\n"
                 "      \"wheel_inserts\": %llu,\n"
                 "      \"wheel_cascades\": %llu,\n"
                 "      \"heap_inserts\": %llu\n"
                 "    },\n"
                 "    \"csfq_80\": {\n"
                 "      \"exp_calls\": %llu,\n"
                 "      \"rng_draws\": %llu,\n"
                 "      \"observer_dispatches\": %llu,\n"
                 "      \"series_appends\": %llu,\n"
                 "      \"wheel_inserts\": %llu,\n"
                 "      \"wheel_cascades\": %llu,\n"
                 "      \"heap_inserts\": %llu\n"
                 "    }\n"
                 "  },\n"
                 "  \"seed_reference\": {\n"
                 "    \"events_per_sec\": %.0f,\n"
                 "    \"allocs_per_event\": %.2f,\n"
                 "    \"corelite_80_wall_ms\": %.1f,\n"
                 "    \"csfq_80_wall_ms\": %.1f\n"
                 "  },\n"
                 "  \"speedup_vs_seed\": {\n"
                 "    \"events_per_sec\": %.2f,\n"
                 "    \"corelite_80_wall\": %.2f,\n"
                 "    \"csfq_80_wall\": %.2f\n"
                 "  }\n"
                 "}\n",
                 std::thread::hardware_concurrency(),
                 static_cast<unsigned long long>(detached.events), detached.events_per_sec,
                 detached.allocs_per_event, static_cast<unsigned long long>(handled.events),
                 handled.events_per_sec, handled.allocs_per_event,
                 static_cast<unsigned long long>(sh_on.events), kShortChains,
                 sh_on.events_per_sec, sh_off.events_per_sec, sh_ratio,
                 sh_on.wheel_insert_rate, sh_on.cascades_per_event, sh_on.allocs_per_event,
                 static_cast<unsigned long long>(fwd.hops),
                 static_cast<unsigned long long>(fwd.allocs), fwd.allocs_per_hop,
                 fwd.hops_per_sec,
                 cl80, cs80, row_cl_off.wall_ms, row_cs_off.wall_ms, kRowRepeats,
                 static_cast<unsigned long long>(row_cl.ops.exp_calls),
                 static_cast<unsigned long long>(row_cl.ops.rng_draws),
                 static_cast<unsigned long long>(row_cl.ops.observer_dispatches),
                 static_cast<unsigned long long>(row_cl.ops.series_appends),
                 static_cast<unsigned long long>(row_cl.ops.wheel_inserts),
                 static_cast<unsigned long long>(row_cl.ops.wheel_cascades),
                 static_cast<unsigned long long>(row_cl.ops.heap_inserts),
                 static_cast<unsigned long long>(row_cs.ops.exp_calls),
                 static_cast<unsigned long long>(row_cs.ops.rng_draws),
                 static_cast<unsigned long long>(row_cs.ops.observer_dispatches),
                 static_cast<unsigned long long>(row_cs.ops.series_appends),
                 static_cast<unsigned long long>(row_cs.ops.wheel_inserts),
                 static_cast<unsigned long long>(row_cs.ops.wheel_cascades),
                 static_cast<unsigned long long>(row_cs.ops.heap_inserts),
                 kSeedEventsPerSec, kSeedAllocsPerEvent,
                 kSeedCorelite80WallMs, kSeedCsfq80WallMs, speedup_events, speedup_cl,
                 speedup_cs);
    std::fclose(json);
    std::printf("wrote BENCH_event_engine.json\n");
  }
  return 0;
}
