#include "telemetry/manifest.h"

#include <cmath>
#include <cstdio>

#include "stats/json_writer.h"

#ifndef CORELITE_GIT_SHA
#define CORELITE_GIT_SHA "unknown"
#endif
#ifndef CORELITE_BUILD_FLAGS
#define CORELITE_BUILD_FLAGS "unknown"
#endif
#ifndef CORELITE_BUILD_TYPE
#define CORELITE_BUILD_TYPE "unknown"
#endif

namespace corelite::telemetry {

std::string_view BuildInfo::git_sha() { return CORELITE_GIT_SHA; }
#ifdef __VERSION__
std::string_view BuildInfo::compiler() { return __VERSION__; }
#else
std::string_view BuildInfo::compiler() { return "unknown"; }
#endif
std::string_view BuildInfo::flags() { return CORELITE_BUILD_FLAGS; }
std::string_view BuildInfo::build_type() { return CORELITE_BUILD_TYPE; }

std::string digest_hex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

void write_manifest(std::ostream& os, const RunManifest& m) {
  os << "{\n"
     << "  \"tool\": \"" << stats::json_escape(m.tool) << "\",\n"
     << "  \"scenario\": \"" << stats::json_escape(m.scenario) << "\",\n"
     << "  \"mechanism\": \"" << stats::json_escape(m.mechanism) << "\",\n"
     << "  \"base_seed\": " << m.base_seed << ",\n"
     << "  \"runs\": " << m.runs << ",\n"
     << "  \"jobs\": " << m.jobs << ",\n"
     << "  \"events\": " << m.events << ",\n"
     << "  \"result_digest\": \"" << digest_hex(m.result_digest) << "\",\n"
     << "  \"build\": {\n"
     << "    \"git_sha\": \"" << stats::json_escape(BuildInfo::git_sha()) << "\",\n"
     << "    \"compiler\": \"" << stats::json_escape(BuildInfo::compiler()) << "\",\n"
     << "    \"flags\": \"" << stats::json_escape(BuildInfo::flags()) << "\",\n"
     << "    \"build_type\": \"" << stats::json_escape(BuildInfo::build_type()) << "\"\n"
     << "  },\n";
  os << "  \"wall_phases_ms\": {";
  for (std::size_t i = 0; i < m.wall_phases_ms.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << stats::json_escape(m.wall_phases_ms[i].first)
       << "\": " << stats::json_number(m.wall_phases_ms[i].second);
  }
  os << "},\n";
  os << "  \"hot_path_counters\": {";
  const char* sep = "";
  for (const sim::HotPathField& f : sim::hotpath_fields()) {
    os << sep << "\"" << f.name << "\": " << m.hotpath.*f.member;
    sep = ", ";
  }
  os << "},\n";
  os << "  \"extra\": {";
  for (std::size_t i = 0; i < m.extra.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << stats::json_escape(m.extra[i].first) << "\": \""
       << stats::json_escape(m.extra[i].second) << "\"";
  }
  os << "}\n}\n";
}

void print_hotpath_profile(std::FILE* out, std::string_view title,
                           const sim::HotPathCounters& c) {
  std::fprintf(out, "\n%.*s\n", static_cast<int>(title.size()), title.data());
  for (const sim::HotPathField& f : sim::hotpath_fields()) {
    std::fprintf(out, "  %-22.*s %14llu\n", static_cast<int>(f.name.size()), f.name.data(),
                 static_cast<unsigned long long>(c.*f.member));
  }
  std::fprintf(out, "  %-22s %13.1f%%\n", "wheel share of events", c.wheel_insert_rate() * 100.0);
}

}  // namespace corelite::telemetry
