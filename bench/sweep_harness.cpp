// Sweep-harness benchmark: serial vs parallel execution of one grid.
//
// Runs the same 32-run grid (2 scenarios × 4 mechanisms × 4 seeds)
// twice through the sweep runner — once with --jobs 1 and once with
// the requested parallelism — and verifies the determinism contract
// the runner promises: every RunResult digest must match bit-for-bit
// between the two executions.  Timing for both passes, the measured
// speedup and the verdict land in BENCH_sweep.json in the working
// directory, alongside the hardware thread count so results from
// single-core containers are honestly labelled as such.
//
//   sweep_harness [--jobs N] [--tiny] [--profile]
//                 [--telemetry] [--trace-out PATH] [--manifest PATH]
//                 [--heartbeat SEC]
//
// --jobs N        parallel pass width (default: hardware threads, min 2)
// --tiny          shrink the grid to 16 x 10 s runs — the CI smoke grid
// --profile       print the hot-path op counters and add them to the JSON
// --telemetry     write a run manifest
// --trace-out P   write a Chrome trace (virtual tracks from run 0 of the
//                 parallel pass, wall spans for every parallel run);
//                 implies --telemetry
// --manifest P    manifest path (default run_manifest.json)
// --heartbeat S   live sweep progress to stderr every S seconds
//
// Exit status is non-zero if any digest differs, so CI can gate on it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runner/sweep.h"
#include "sim/hotpath.h"
#include "stats/aggregate.h"
#include "telemetry/harness.h"

namespace sc = corelite::scenario;
namespace rn = corelite::runner;
namespace tel = corelite::telemetry;

namespace {

double run_pass(rn::SweepRunner& runner, const std::vector<rn::RunDescriptor>& runs,
                std::vector<rn::RunResult>& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = runner.run(runs);
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = std::max(2u, std::thread::hardware_concurrency());
  bool tiny = false;
  bool profile = false;
  bool telemetry = false;
  std::string trace_path;
  std::string manifest_path = "run_manifest.json";
  double heartbeat_sec = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      tiny = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
      telemetry = true;
    } else if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (std::strcmp(argv[i], "--heartbeat") == 0 && i + 1 < argc) {
      heartbeat_sec = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--tiny] [--profile] [--telemetry] [--trace-out PATH] "
                   "[--manifest PATH] [--heartbeat SEC]\n",
                   argv[0]);
      return 2;
    }
  }
  if (jobs < 1) jobs = 1;

  rn::SweepGrid grid;
  grid.scenarios = {"fig5", "fig7"};
  grid.mechanisms = {sc::Mechanism::Corelite, sc::Mechanism::Csfq, sc::Mechanism::Wfq,
                     sc::Mechanism::DropTail};
  grid.repeats = tiny ? 2 : 4;
  grid.base_seed = 1;
  grid.duration_sec = tiny ? 10.0 : 40.0;
  const auto runs = rn::expand_grid(grid);

  std::printf("Sweep harness: %zu runs (%zu scenario(s) x %zu mechanism(s) x %zu seed(s))\n",
              runs.size(), grid.scenarios.size(), grid.mechanisms.size(), grid.repeats);
  std::printf("hardware threads: %u\n\n", std::thread::hardware_concurrency());

  tel::PhaseTimer phases;
  tel::TraceWriter trace;
  std::unique_ptr<tel::LinkTraceCollector> collector;

  std::vector<rn::RunResult> serial;
  std::vector<rn::RunResult> parallel;
  phases.start("serial_pass");
  rn::SweepRunner serial_runner{1};
  if (heartbeat_sec > 0.0) serial_runner.set_heartbeat(&std::cerr, heartbeat_sec);
  const double wall_serial = run_pass(serial_runner, runs, serial);
  std::printf("serial   (--jobs 1):  %.1f ms\n", wall_serial);
  phases.start("parallel_pass");
  rn::SweepRunner parallel_runner{jobs};
  if (heartbeat_sec > 0.0) parallel_runner.set_heartbeat(&std::cerr, heartbeat_sec);
  if (!trace_path.empty()) {
    parallel_runner.set_run_instrument(0, tel::congested_link_instrument(trace, collector));
  }
  const double wall_parallel = run_pass(parallel_runner, runs, parallel);
  phases.start("report");
  std::printf("parallel (--jobs %zu): %.1f ms\n", jobs, wall_parallel);
  const double speedup = wall_parallel > 0.0 ? wall_serial / wall_parallel : 0.0;
  std::printf("speedup: %.2fx\n\n", speedup);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!serial[i].ok || !parallel[i].ok || serial[i].digest != parallel[i].digest ||
        serial[i].events != parallel[i].events) {
      ++mismatches;
      std::printf("MISMATCH run %zu (%s): serial digest %016llx, parallel %016llx\n", i,
                  rn::cell_key(runs[i]).c_str(),
                  static_cast<unsigned long long>(serial[i].digest),
                  static_cast<unsigned long long>(parallel[i].digest));
    }
  }
  std::printf("bit-identity: %zu/%zu runs match%s\n", runs.size() - mismatches, runs.size(),
              mismatches == 0 ? " — parallel output is bit-identical to serial" : "");

  corelite::stats::SweepAggregator agg;
  for (const auto& r : parallel) {
    if (r.ok) rn::record_metrics(agg, r);
  }
  std::printf("\n%-28s %-4s %-20s %-12s\n", "cell", "n", "jain (mean +- ci95)", "drops(mean)");
  for (const auto& cell : agg.snapshot()) {
    double jain_mean = 0.0;
    double jain_ci = 0.0;
    double drops_mean = 0.0;
    std::size_t n = 0;
    for (const auto& m : cell.metrics) {
      if (m.name == "jain") {
        jain_mean = m.acc.mean();
        jain_ci = m.acc.ci95_half_width();
        n = m.acc.count();
      } else if (m.name == "total_drops") {
        drops_mean = m.acc.mean();
      }
    }
    std::printf("%-28s %-4zu %.4f +- %.4f     %.1f\n", cell.name.c_str(), n, jain_mean, jain_ci,
                drops_mean);
  }

  // Both passes' workers have flushed into the process aggregate, so
  // these totals cover the serial and the parallel execution together.
  const corelite::sim::HotPathCounters ops = corelite::sim::aggregated_hotpath_counters();
  if (profile) tel::print_hotpath_profile(stdout, "hot-path op counters (both passes)", ops);

  std::FILE* json = std::fopen("BENCH_sweep.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"sweep_harness\",\n"
                 "  \"runs\": %zu,\n"
                 "  \"scenarios\": %zu,\n"
                 "  \"mechanisms\": %zu,\n"
                 "  \"repeats\": %zu,\n"
                 "  \"duration_sec\": %.0f,\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"jobs_parallel\": %zu,\n"
                 "  \"wall_serial_ms\": %.1f,\n"
                 "  \"wall_parallel_ms\": %.1f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"bit_identical\": %s,\n"
                 "  \"digest_mismatches\": %zu",
                 runs.size(), grid.scenarios.size(), grid.mechanisms.size(), grid.repeats,
                 grid.duration_sec, std::thread::hardware_concurrency(), jobs, wall_serial,
                 wall_parallel, speedup, mismatches == 0 ? "true" : "false", mismatches);
    if (profile) {
      std::fprintf(json,
                   ",\n"
                   "  \"hot_path_counters\": {\n"
                   "    \"exp_calls\": %llu,\n"
                   "    \"rng_draws\": %llu,\n"
                   "    \"observer_dispatches\": %llu,\n"
                   "    \"series_appends\": %llu,\n"
                   "    \"wheel_inserts\": %llu,\n"
                   "    \"wheel_cascades\": %llu,\n"
                   "    \"heap_inserts\": %llu,\n"
                   "    \"lp_barriers\": %llu,\n"
                   "    \"cross_lp_events\": %llu,\n"
                   "    \"mailbox_flushes\": %llu\n"
                   "  }",
                   static_cast<unsigned long long>(ops.exp_calls),
                   static_cast<unsigned long long>(ops.rng_draws),
                   static_cast<unsigned long long>(ops.observer_dispatches),
                   static_cast<unsigned long long>(ops.series_appends),
                   static_cast<unsigned long long>(ops.wheel_inserts),
                   static_cast<unsigned long long>(ops.wheel_cascades),
                   static_cast<unsigned long long>(ops.heap_inserts),
                   static_cast<unsigned long long>(ops.lp_barriers),
                   static_cast<unsigned long long>(ops.cross_lp_events),
                   static_cast<unsigned long long>(ops.mailbox_flushes));
    }
    std::fprintf(json, "\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_sweep.json\n");
  }

  if (telemetry) {
    const std::uint64_t digest = rn::combined_digest(parallel);
    std::printf("result digest: %s\n", tel::digest_hex(digest).c_str());
    if (!trace_path.empty()) {
      tel::add_wall_spans(trace, parallel);
      if (!tel::write_trace_file(trace, trace_path, std::cerr)) return 1;
    }
    phases.stop();
    tel::RunManifest manifest;
    manifest.tool = "sweep_harness";
    manifest.scenario = "fig5,fig7";
    manifest.mechanism = "corelite,csfq,wfq,droptail";
    manifest.base_seed = grid.base_seed;
    manifest.runs = parallel.size();
    manifest.jobs = jobs;
    for (const auto& r : parallel) manifest.events += r.events;
    manifest.result_digest = digest;
    manifest.hotpath = ops;
    manifest.wall_phases_ms = phases.phases();
    manifest.extra.emplace_back("bit_identical", mismatches == 0 ? "true" : "false");
    if (!trace_path.empty()) manifest.extra.emplace_back("trace", trace_path);
    if (!tel::write_manifest_file(manifest, manifest_path, std::cerr)) return 1;
  }
  return mismatches == 0 ? 0 : 1;
}
