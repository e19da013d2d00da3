// Run manifests: one JSON document that makes a BENCH row (or any
// experiment output) self-describing.
//
// A manifest records WHAT ran (tool, scenario grid, mechanism, seeds,
// event count), ON WHAT (git SHA, compiler, flags, build type — baked
// in at compile time), HOW LONG (named wall-clock phases) and WHAT CAME
// OUT (the FNV-1a result digest that the determinism tests key on, and
// every counter of sim::HotPathCounters under its table name).  The
// digest field is the same value the binary prints, so a manifest can
// be validated against the run's visible output (tools/
// check_telemetry.py does exactly that in CI).
//
// print_hotpath_profile() is the --profile table every binary prints;
// it walks the same counter table as the manifest.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/hotpath.h"

namespace corelite::telemetry {

/// Compile-time facts about this binary (populated by the build system;
/// "unknown" when built outside git or without the CMake definitions).
struct BuildInfo {
  [[nodiscard]] static std::string_view git_sha();
  [[nodiscard]] static std::string_view compiler();
  [[nodiscard]] static std::string_view flags();
  [[nodiscard]] static std::string_view build_type();
};

/// 16-digit lower-case hex, the format every binary prints digests in.
[[nodiscard]] std::string digest_hex(std::uint64_t digest);

struct RunManifest {
  std::string tool;       ///< binary name, e.g. "corelite_sim"
  std::string scenario;   ///< scenario name or comma-joined sweep list
  std::string mechanism;  ///< mechanism name or comma-joined sweep list
  std::uint64_t base_seed = 0;
  std::size_t runs = 1;
  std::size_t jobs = 1;
  std::uint64_t events = 0;          ///< total simulated events
  std::uint64_t result_digest = 0;   ///< matches the printed digest
  sim::HotPathCounters hotpath{};
  /// Named wall-clock phases, in order (e.g. setup / run / report).
  std::vector<std::pair<std::string, double>> wall_phases_ms;
  /// Free-form string facts (e.g. trace file path, repeats).
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Emit the manifest plus build info.
void write_manifest(std::ostream& os, const RunManifest& m);

/// The --profile table: `title`, then one line per hot-path counter in
/// table order, then the wheel's share of scheduled events.
void print_hotpath_profile(std::FILE* out, std::string_view title,
                           const sim::HotPathCounters& c);

}  // namespace corelite::telemetry
