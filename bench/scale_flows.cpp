// Scalability: the point of core-statelessness.
//
// The paper's motivation (§1): core routers serve "hundreds of
// thousands of flows simultaneously", so per-flow state in the core
// does not scale.  This bench grows the flow population on the Figure-2
// topology and reports, per mechanism:
//   - the amount of per-flow state a core router carries, measured from
//     the routers themselves (Corelite/CSFQ: none — two scalars per
//     LINK regardless of flows; WFQ: tag state per active flow),
//   - fairness at scale, and
//   - simulator throughput (events and simulated-vs-wall time).
// WFQ runs alongside the two core-stateless schemes so the measured
// state column actually contrasts O(1) with O(flows).
//
// The grid executes through the sweep runner, so
//   --jobs N    runs N universes in parallel (rows stay in grid order
//               and are bit-identical to --jobs 1), and
//   --sweep R   repeats every cell R times over derived seeds and adds
//               a mean±ci95 fairness summary.
//
// After the grid, the SCALING CURVE runs generated workloads at bench
// scale — 1k → 10k → 100k flows on a generated topology (1M with
// --stretch) — and records wall time, events/s, hot-path op counts and
// peak RSS per row into BENCH_scale.json.  The curve is the workload
// axis the paper motivates ("hundreds of thousands of flows"): each row
// is one deterministic generated scenario, so the per-row digest doubles
// as a regression gate.
//   --curve A,B,...      override the curve's flow counts (empty: skip)
//   --curve-topo T       generated topology (pl8, ft4, isp32, ...)
//   --curve-duration S   simulated seconds per curve row
//   --stretch            append the 1M-flow stretch row
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runner/sweep.h"
#include "sim/hotpath.h"
#include "sim/parallel/thread_budget.h"
#include "stats/aggregate.h"
#include "telemetry/harness.h"
#include "telemetry/metrics.h"

namespace sc = corelite::scenario;
namespace rn = corelite::runner;
namespace tel = corelite::telemetry;

namespace {

/// Current resident set size in KB from /proc/self/status (-1 if the
/// platform doesn't expose it — the JSON then records -1, not garbage).
long current_rss_kb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return -1;
}

/// Process-lifetime peak RSS in KB (ru_maxrss is KB on Linux).
long peak_rss_kb() {
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return -1;
  return ru.ru_maxrss;
}

struct CurveRow {
  std::size_t flows = 0;
  std::string scenario;
  std::size_t lp = 1;  ///< requested LP count (1 = serial engine)
  bool fluid = false;  ///< row ran with fluid fast-forward jumps enabled
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double events_per_flow = 0.0;
  /// Fraction of simulated time the convergence detector classified as
  /// steady (fast-forwardable); packet rows measure it in observe-only
  /// mode, so fluid-mode wins are attributable row by row.
  double steady_state_fraction = 0.0;
  double fluid_ff_sec = 0.0;            ///< simulated seconds skipped by jumps
  std::uint64_t fluid_jumps = 0;
  std::uint64_t fluid_events_elided = 0;
  double speedup_vs_packet = 0.0;  ///< packet-row wall / this row's wall (fluid rows)
  /// Certification-attempt accounting (fluid rows; zeros elsewhere):
  /// how hard the controller worked for its jumps, and why it balked.
  std::uint64_t cert_attempts = 0;
  std::uint64_t cert_rejects_min_skip = 0;
  std::uint64_t cert_rejects_drift = 0;
  std::uint64_t cert_rejects_agreement = 0;
  double cert_mean_dwell_at_accept = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  double jain = 0.0;
  std::uint64_t rng_draws = 0;
  std::uint64_t wheel_inserts = 0;
  std::uint64_t series_appends = 0;
  std::uint64_t lp_barriers = 0;
  std::uint64_t cross_lp_events = 0;
  std::uint64_t mailbox_flushes = 0;
  double lookahead_ms = 0.0;
  double cross_lp_fraction = 0.0;  ///< cross-LP handoffs / events
  double speedup_vs_serial = 0.0;  ///< wall(lp=1, same flows) / wall(this row)
  /// lp > 1 rows re-run with --lp-threads 1: the digest must not depend
  /// on the OS thread count (the engine's determinism contract).
  bool digest_match_serial_stepped = false;
  long rss_kb = -1;
  long peak_kb = -1;
  std::uint64_t digest = 0;
  bool ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 1;
  std::size_t repeats = 1;
  std::uint64_t base_seed = 1;
  bool profile = false;
  bool telemetry = false;
  bool stretch = false;
  std::string trace_path;
  std::string manifest_path = "run_manifest.json";
  std::string curve_topo = "pl8";
  std::string curve_list = "1000,10000,100000";
  std::string lp_list = "1,4";
  double curve_duration = 10.0;
  bool fluid_axis = true;
  double fluid_duration = 300.0;
  double heartbeat_sec = 0.0;
  for (int i = 1; i < argc; ++i) {
    const bool more = i + 1 < argc;
    if (std::strcmp(argv[i], "--jobs") == 0 && more) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--sweep") == 0 && more) {
      repeats = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && more) {
      base_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry = true;
    } else if (std::strcmp(argv[i], "--stretch") == 0) {
      stretch = true;
    } else if (std::strcmp(argv[i], "--curve") == 0 && more) {
      curve_list = argv[++i];
    } else if (std::strcmp(argv[i], "--curve-topo") == 0 && more) {
      curve_topo = argv[++i];
    } else if (std::strcmp(argv[i], "--curve-duration") == 0 && more) {
      curve_duration = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--lp-list") == 0 && more) {
      lp_list = argv[++i];
    } else if (std::strcmp(argv[i], "--no-fluid-axis") == 0) {
      fluid_axis = false;
    } else if (std::strcmp(argv[i], "--fluid-duration") == 0 && more) {
      fluid_duration = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && more) {
      trace_path = argv[++i];
      telemetry = true;
    } else if (std::strcmp(argv[i], "--manifest") == 0 && more) {
      manifest_path = argv[++i];
    } else if (std::strcmp(argv[i], "--heartbeat") == 0 && more) {
      heartbeat_sec = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--sweep REPEATS] [--seed S] [--profile] [--telemetry] "
                   "[--trace-out PATH] [--manifest PATH] [--heartbeat SEC] "
                   "[--curve A,B,...] [--curve-topo T] [--curve-duration S] [--lp-list A,B,...] "
                   "[--no-fluid-axis] [--fluid-duration S] [--stretch]\n",
                   argv[0]);
      return 2;
    }
  }
  if (jobs < 1) jobs = 1;
  if (repeats < 1) repeats = 1;
  tel::set_enabled(telemetry);

  // ---- Scaling curve: generated workloads at bench scale ----------------
  std::vector<std::size_t> curve;
  {
    std::stringstream ss{curve_list};
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      char* end = nullptr;
      // strtoull silently wraps negatives; reject the sign up front so
      // "-100" fails as non-positive instead of becoming 2^64-100.
      const unsigned long long n =
          item[0] == '-' ? 0 : std::strtoull(item.c_str(), &end, 10);
      if (n == 0 || end == item.c_str() || *end != '\0') {
        std::fprintf(stderr, "--curve entry '%s': flow counts must be positive integers\n",
                     item.c_str());
        return 2;
      }
      if (!curve.empty() && n <= curve.back()) {
        std::fprintf(stderr,
                     "--curve entry '%llu' after '%zu': flow counts must be strictly "
                     "increasing (sorted, no duplicates)\n",
                     n, curve.back());
        return 2;
      }
      curve.push_back(static_cast<std::size_t>(n));
    }
  }
  if (stretch && (curve.empty() || curve.back() < 1000000)) curve.push_back(1000000);
  if (curve_duration <= 0.0) curve_duration = 10.0;

  std::vector<std::size_t> lps;
  {
    std::stringstream ss{lp_list};
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
      if (end == item.c_str() || *end != '\0' || v == 0) {
        std::fprintf(stderr, "malformed --lp-list entry '%s'\n", item.c_str());
        return 2;
      }
      lps.push_back(static_cast<std::size_t>(v));
    }
    if (lps.empty()) lps.push_back(1);
  }


  std::vector<rn::RunDescriptor> runs;
  for (std::size_t n : {10u, 20u, 40u, 80u}) {
    for (const auto mech : {sc::Mechanism::Corelite, sc::Mechanism::Csfq, sc::Mechanism::Wfq}) {
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        rn::RunDescriptor d;
        d.scenario = "fig5";  // Figure-2 topology with the population overridden
        d.mechanism = mech;
        d.num_flows = n;
        d.duration_sec = 60.0;
        d.weights.resize(n);
        for (std::size_t i = 0; i < n; ++i) d.weights[i] = static_cast<double>(i % 3 + 1);
        d.repeat = rep;
        d.seed = rn::derive_seed(base_seed, rep);
        runs.push_back(std::move(d));
      }
    }
  }

  std::printf("Scalability: flow population sweep (Figure-2 topology, 60 s runs)\n");
  std::printf("%zu runs, %zu job(s), %zu repeat(s) per cell\n\n", runs.size(), jobs, repeats);
  std::printf("%-8s %-10s %-8s %-10s %-10s %-12s %-14s %-12s\n", "flows", "mech", "rep", "jain",
              "drops", "events", "wall[ms]", "core state");

  tel::PhaseTimer phases;
  phases.start("run");
  tel::TraceWriter trace;
  std::unique_ptr<tel::LinkTraceCollector> collector;
  rn::SweepRunner runner{jobs};
  if (!trace_path.empty()) {
    runner.set_run_instrument(0, tel::congested_link_instrument(trace, collector));
  }
  if (heartbeat_sec > 0.0) runner.set_heartbeat(&std::cerr, heartbeat_sec);
  const auto results = runner.run(runs);
  phases.start("report");

  corelite::stats::SweepAggregator agg;
  for (const auto& r : results) {
    if (!r.ok) {
      std::printf("%-8zu %-10s run failed\n", r.desc.num_flows,
                  sc::mechanism_name(r.desc.mechanism).c_str());
      continue;
    }
    rn::record_metrics(agg, r);
    char state[32];
    std::snprintf(state, sizeof state, "%zu flows", r.core_flow_state);
    std::printf("%-8zu %-10s %-8zu %-10.4f %-10llu %-12llu %-14.1f %-12s\n", r.desc.num_flows,
                sc::mechanism_name(r.desc.mechanism).c_str(), r.desc.repeat, r.jain,
                static_cast<unsigned long long>(r.total_drops),
                static_cast<unsigned long long>(r.events), r.wall_ms, state);
  }

  if (repeats > 1) {
    std::printf("\nPer-cell fairness over %zu seeds\n%-28s %-4s %-22s\n", repeats, "cell", "n",
                "jain (mean +- ci95)");
    for (const auto& cell : agg.snapshot()) {
      for (const auto& m : cell.metrics) {
        if (m.name != "jain") continue;
        std::printf("%-28s %-4zu %.4f +- %.4f\n", cell.name.c_str(), m.acc.count(),
                    m.acc.mean(), m.acc.ci95_half_width());
      }
    }
  }

  if (profile) {
    const corelite::sim::HotPathCounters c = corelite::sim::aggregated_hotpath_counters();
    std::printf("\nhot-path profile (totals across all %zu runs)\n", runs.size());
    std::printf("  exp calls            %12llu\n", static_cast<unsigned long long>(c.exp_calls));
    std::printf("  rng draws            %12llu\n", static_cast<unsigned long long>(c.rng_draws));
    std::printf("  observer dispatches  %12llu\n",
                static_cast<unsigned long long>(c.observer_dispatches));
    std::printf("  series appends       %12llu\n",
                static_cast<unsigned long long>(c.series_appends));
    std::printf("  wheel inserts        %12llu  (%.1f%% of events; heap %llu, cascades %llu)\n",
                static_cast<unsigned long long>(c.wheel_inserts), c.wheel_insert_rate() * 100.0,
                static_cast<unsigned long long>(c.heap_inserts),
                static_cast<unsigned long long>(c.wheel_cascades));
    std::printf("  lp barriers          %12llu  (cross-LP events %llu, mailbox flushes %llu)\n",
                static_cast<unsigned long long>(c.lp_barriers),
                static_cast<unsigned long long>(c.cross_lp_events),
                static_cast<unsigned long long>(c.mailbox_flushes));
  }

  std::printf(
      "\nExpected shape: weighted fairness holds as the population grows (the\n"
      "per-unit-weight share shrinks toward the LIMD oscillation amplitude, so\n"
      "jain decays gently); measured core flow state stays 0 for the core-\n"
      "stateless schemes at every scale while WFQ's grows with the population\n"
      "— the paper's scalability argument.\n");

  const std::size_t hw_threads = corelite::sim::par::ThreadBudget::hardware_threads();
  if (!curve.empty()) {
    phases.start("curve");
    std::printf("\nScaling curve: gen-%s topology, corelite, %.1f s per row, %zu hw thread(s)\n",
                curve_topo.c_str(), curve_duration, hw_threads);
    std::printf("%-10s %-4s %-12s %-12s %-12s %-12s %-10s %-8s %-9s %-10s %-10s\n", "flows", "lp",
                "wall[ms]", "events", "ev/s", "delivered", "drops", "jain", "speedup", "rss[MB]",
                "peak[MB]");
    std::vector<CurveRow> rows;
    for (const std::size_t n : curve) {
      double serial_wall_ms = 0.0;
      for (const std::size_t lp : lps) {
        rn::RunDescriptor d;
        d.scenario = "gen-" + curve_topo + "-" + std::to_string(n);
        d.mechanism = sc::Mechanism::Corelite;
        d.duration_sec = curve_duration;
        d.seed = rn::derive_seed(base_seed, 0);
        d.lp = lp;
        // Serial rows carry the convergence detector in observe-only
        // mode: the packet results stay authoritative while the row
        // records how much of its simulated time was fast-forwardable.
        // The detector is serial, so lp > 1 rows skip it.
        d.fluid_observe = lp <= 1;
        const corelite::sim::HotPathCounters before = corelite::sim::aggregated_hotpath_counters();
        const rn::RunResult r = rn::execute_run(d);
        const corelite::sim::HotPathCounters after = corelite::sim::aggregated_hotpath_counters();
        CurveRow row;
        row.flows = n;
        row.scenario = d.scenario;
        row.lp = lp;
        row.ok = r.ok;
        if (!r.ok) {
          std::printf("%-10zu run failed (scenario '%s')\n", n, d.scenario.c_str());
          rows.push_back(std::move(row));
          continue;
        }
        row.wall_ms = r.wall_ms;
        row.events = r.events;
        row.events_per_sec =
            r.wall_ms > 0.0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3) : 0.0;
        row.events_per_flow = static_cast<double>(r.events) / static_cast<double>(n);
        row.steady_state_fraction =
            curve_duration > 0.0
                ? (r.fluid_steady_sec + r.fluid_ff_sec) / curve_duration
                : 0.0;
        row.delivered = r.delivered;
        row.drops = r.total_drops;
        row.jain = r.jain;
        row.rng_draws = after.rng_draws - before.rng_draws;
        row.wheel_inserts = after.wheel_inserts - before.wheel_inserts;
        row.series_appends = after.series_appends - before.series_appends;
        row.lp_barriers = after.lp_barriers - before.lp_barriers;
        row.cross_lp_events = after.cross_lp_events - before.cross_lp_events;
        row.mailbox_flushes = after.mailbox_flushes - before.mailbox_flushes;
        row.lookahead_ms = (after.lookahead_ns - before.lookahead_ns) / 1e6;
        row.cross_lp_fraction =
            row.events > 0 ? static_cast<double>(row.cross_lp_events) /
                                 static_cast<double>(row.events)
                           : 0.0;
        if (lp <= 1) serial_wall_ms = r.wall_ms;
        row.speedup_vs_serial =
            serial_wall_ms > 0.0 && row.wall_ms > 0.0 ? serial_wall_ms / row.wall_ms : 0.0;
        if (lp > 1) {
          // Determinism witness: the digest is a function of (spec, lp
          // count), never of the OS thread count — re-run the same row
          // stepped on one thread and compare.
          rn::RunDescriptor ds = d;
          ds.lp_threads = 1;
          const rn::RunResult rs = rn::execute_run(ds);
          row.digest_match_serial_stepped = rs.ok && rs.digest == r.digest;
          if (!row.digest_match_serial_stepped) {
            std::fprintf(stderr,
                         "DIGEST MISMATCH: %s lp=%zu auto-threads %016llx vs 1-thread %016llx\n",
                         d.scenario.c_str(), lp, static_cast<unsigned long long>(r.digest),
                         static_cast<unsigned long long>(rs.digest));
            row.ok = false;
          }
        } else {
          row.digest_match_serial_stepped = true;
        }
        row.rss_kb = current_rss_kb();
        row.peak_kb = peak_rss_kb();
        row.digest = r.digest;
        std::printf(
            "%-10zu %-4zu %-12.1f %-12llu %-12.3g %-12llu %-10llu %-8.4f %-9.2f %-10.1f %-10.1f\n",
            n, lp, row.wall_ms, static_cast<unsigned long long>(row.events), row.events_per_sec,
            static_cast<unsigned long long>(row.delivered),
            static_cast<unsigned long long>(row.drops), row.jain, row.speedup_vs_serial,
            static_cast<double>(row.rss_kb) / 1024.0, static_cast<double>(row.peak_kb) / 1024.0);
        rows.push_back(std::move(row));
      }
    }

    // ---- Fluid fast-forward axis -------------------------------------
    // Same flow counts on the steady variant of the generated scenario
    // (no churn, arrivals compressed into the first 5%), long enough
    // that converged cruise dominates — the regime the hybrid engine is
    // for.  Each count runs twice: a packet baseline with the detector
    // in observe-only mode (so the row's steady fraction is measured by
    // the identical detector workload the fluid row carries — the
    // speedup isolates event elision, not detector overhead), then the
    // same scenario with jumps enabled.
    if (fluid_axis) {
      phases.start("fluid");
      std::printf(
          "\nFluid fast-forward axis: gen-%s-*-steady, corelite, %.1f s per row\n",
          curve_topo.c_str(), fluid_duration);
      std::printf("%-10s %-7s %-12s %-12s %-9s %-8s %-9s %-8s %-12s\n", "flows", "mode",
                  "wall[ms]", "events", "ff[s]", "jumps", "steady%", "jain", "speedup");
      for (const std::size_t n : curve) {
        rn::RunDescriptor d;
        d.scenario = "gen-" + curve_topo + "-" + std::to_string(n) + "-steady";
        d.mechanism = sc::Mechanism::Corelite;
        d.duration_sec = fluid_duration;
        d.seed = rn::derive_seed(base_seed, 0);
        d.lp = 1;
        double packet_wall_ms = 0.0;
        for (const bool fluid_on : {false, true}) {
          rn::RunDescriptor df = d;
          df.fluid = fluid_on;
          df.fluid_observe = !fluid_on;
          const rn::RunResult r = rn::execute_run(df);
          CurveRow row;
          row.flows = n;
          row.scenario = df.scenario;
          row.lp = 1;
          row.fluid = fluid_on;
          row.ok = r.ok;
          if (!r.ok) {
            std::printf("%-10zu %-7s run failed (scenario '%s')\n", n,
                        fluid_on ? "fluid" : "packet", df.scenario.c_str());
            rows.push_back(std::move(row));
            continue;
          }
          row.wall_ms = r.wall_ms;
          row.events = r.events;
          row.events_per_sec =
              r.wall_ms > 0.0 ? static_cast<double>(r.events) / (r.wall_ms / 1e3) : 0.0;
          row.events_per_flow = static_cast<double>(r.events) / static_cast<double>(n);
          row.steady_state_fraction =
              fluid_duration > 0.0
                  ? (r.fluid_steady_sec + r.fluid_ff_sec) / fluid_duration
                  : 0.0;
          row.fluid_ff_sec = r.fluid_ff_sec;
          row.fluid_jumps = r.fluid_jumps;
          row.fluid_events_elided = r.fluid_events_elided;
          row.cert_attempts = r.cert_attempts;
          row.cert_rejects_min_skip = r.cert_rejects_min_skip;
          row.cert_rejects_drift = r.cert_rejects_drift;
          row.cert_rejects_agreement = r.cert_rejects_agreement;
          row.cert_mean_dwell_at_accept = r.cert_mean_dwell_at_accept;
          row.delivered = r.delivered;
          row.drops = r.total_drops;
          row.jain = r.jain;
          row.digest_match_serial_stepped = true;
          row.rss_kb = current_rss_kb();
          row.peak_kb = peak_rss_kb();
          row.digest = r.digest;
          if (!fluid_on) packet_wall_ms = r.wall_ms;
          row.speedup_vs_packet = fluid_on && packet_wall_ms > 0.0 && row.wall_ms > 0.0
                                      ? packet_wall_ms / row.wall_ms
                                      : 0.0;
          std::printf("%-10zu %-7s %-12.1f %-12llu %-9.1f %-8llu %-9.1f %-8.4f %-12.2f\n", n,
                      fluid_on ? "fluid" : "packet", row.wall_ms,
                      static_cast<unsigned long long>(row.events), row.fluid_ff_sec,
                      static_cast<unsigned long long>(row.fluid_jumps),
                      row.steady_state_fraction * 100.0, row.jain, row.speedup_vs_packet);
          rows.push_back(std::move(row));
        }
      }
    }

    std::FILE* f = std::fopen("BENCH_scale.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_scale.json\n");
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"scale_flows_curve\",\n");
    std::fprintf(f, "  \"topology\": \"%s\",\n", curve_topo.c_str());
    std::fprintf(f, "  \"mechanism\": \"corelite\",\n");
    std::fprintf(f, "  \"duration_sec\": %.6g,\n", curve_duration);
    std::fprintf(f, "  \"base_seed\": %llu,\n", static_cast<unsigned long long>(base_seed));
    std::fprintf(f, "  \"hw_threads\": %zu,\n", hw_threads);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CurveRow& row = rows[i];
      std::fprintf(f,
                   "    {\"flows\": %zu, \"scenario\": \"%s\", \"lp\": %zu, \"hw_threads\": %zu, "
                   "\"fluid\": %s, \"ok\": %s, \"wall_ms\": %.3f, "
                   "\"events\": %llu, \"events_per_sec\": %.6g, \"events_per_flow\": %.6g, "
                   "\"steady_state_fraction\": %.6g, \"fluid_ff_sec\": %.6g, "
                   "\"fluid_jumps\": %llu, \"fluid_events_elided\": %llu, "
                   "\"cert_attempts\": %llu, \"cert_rejects_min_skip\": %llu, "
                   "\"cert_rejects_drift\": %llu, \"cert_rejects_agreement\": %llu, "
                   "\"cert_mean_dwell_at_accept\": %.6g, "
                   "\"speedup_vs_packet\": %.3f, \"delivered\": %llu, "
                   "\"drops\": %llu, \"jain\": %.6f, \"rng_draws\": %llu, "
                   "\"wheel_inserts\": %llu, \"series_appends\": %llu, "
                   "\"lp_barriers\": %llu, \"cross_lp_events\": %llu, "
                   "\"mailbox_flushes\": %llu, \"lookahead_ms\": %.6g, "
                   "\"cross_lp_fraction\": %.6g, \"speedup_vs_serial\": %.3f, "
                   "\"digest_match_serial_stepped\": %s, \"rss_kb\": %ld, "
                   "\"peak_rss_kb\": %ld, \"digest\": \"%s\"}%s\n",
                   row.flows, row.scenario.c_str(), row.lp, hw_threads,
                   row.fluid ? "true" : "false", row.ok ? "true" : "false", row.wall_ms,
                   static_cast<unsigned long long>(row.events), row.events_per_sec,
                   row.events_per_flow, row.steady_state_fraction, row.fluid_ff_sec,
                   static_cast<unsigned long long>(row.fluid_jumps),
                   static_cast<unsigned long long>(row.fluid_events_elided),
                   static_cast<unsigned long long>(row.cert_attempts),
                   static_cast<unsigned long long>(row.cert_rejects_min_skip),
                   static_cast<unsigned long long>(row.cert_rejects_drift),
                   static_cast<unsigned long long>(row.cert_rejects_agreement),
                   row.cert_mean_dwell_at_accept,
                   row.speedup_vs_packet,
                   static_cast<unsigned long long>(row.delivered),
                   static_cast<unsigned long long>(row.drops), row.jain,
                   static_cast<unsigned long long>(row.rng_draws),
                   static_cast<unsigned long long>(row.wheel_inserts),
                   static_cast<unsigned long long>(row.series_appends),
                   static_cast<unsigned long long>(row.lp_barriers),
                   static_cast<unsigned long long>(row.cross_lp_events),
                   static_cast<unsigned long long>(row.mailbox_flushes), row.lookahead_ms,
                   row.cross_lp_fraction, row.speedup_vs_serial,
                   row.digest_match_serial_stepped ? "true" : "false", row.rss_kb, row.peak_kb,
                   tel::digest_hex(row.digest).c_str(), i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_scale.json (%zu rows)\n", rows.size());
    bool any_failed = false;
    for (const CurveRow& row : rows) any_failed = any_failed || !row.ok;
    if (any_failed) return 1;
  }

  if (telemetry) {
    const std::uint64_t digest = rn::combined_digest(results);
    std::printf("result digest: %s\n", tel::digest_hex(digest).c_str());
    if (!trace_path.empty()) {
      tel::add_wall_spans(trace, results);
      if (!tel::write_trace_file(trace, trace_path, std::cerr)) return 1;
    }
    phases.stop();
    tel::RunManifest manifest;
    manifest.tool = "scale_flows";
    manifest.scenario = "fig5";
    manifest.mechanism = "corelite,csfq,wfq";
    manifest.base_seed = base_seed;
    manifest.runs = results.size();
    manifest.jobs = jobs;
    for (const auto& r : results) manifest.events += r.events;
    manifest.result_digest = digest;
    manifest.hotpath = corelite::sim::aggregated_hotpath_counters();
    manifest.wall_phases_ms = phases.phases();
    if (!trace_path.empty()) manifest.extra.emplace_back("trace", trace_path);
    if (!tel::write_manifest_file(manifest, manifest_path, std::cerr)) return 1;
  }
  return 0;
}
