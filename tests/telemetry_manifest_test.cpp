// Run-manifest tests: digest formatting, build provenance, and the JSON
// document every binary emits behind --telemetry.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "sim/hotpath.h"
#include "telemetry/manifest.h"

namespace corelite::telemetry {
namespace {

TEST(Manifest, DigestHexIsSixteenLowercaseDigits) {
  EXPECT_EQ(digest_hex(0), "0000000000000000");
  EXPECT_EQ(digest_hex(0xabcu), "0000000000000abc");
  EXPECT_EQ(digest_hex(0xDEADBEEFCAFEF00DULL), "deadbeefcafef00d");
}

TEST(Manifest, BuildInfoIsAlwaysPopulated) {
  // Values depend on the build environment, but the accessors must
  // never return empty strings ("unknown" is the worst case).
  EXPECT_FALSE(BuildInfo::git_sha().empty());
  EXPECT_FALSE(BuildInfo::compiler().empty());
  EXPECT_FALSE(BuildInfo::flags().empty());
  EXPECT_FALSE(BuildInfo::build_type().empty());
}

TEST(Manifest, DocumentCarriesEveryRequiredKey) {
  RunManifest m;
  m.tool = "unit_test";
  m.scenario = "fig5,fig7";
  m.mechanism = "corelite,csfq";
  m.base_seed = 42;
  m.runs = 8;
  m.jobs = 4;
  m.events = 123456;
  m.result_digest = 0x1234abcd5678ef00ULL;
  m.hotpath.exp_calls = 7;
  m.wall_phases_ms.emplace_back("setup", 1.5);
  m.wall_phases_ms.emplace_back("run", 250.25);
  m.extra.emplace_back("trace", "trace.json");

  std::ostringstream os;
  write_manifest(os, m);
  const std::string out = os.str();

  EXPECT_NE(out.find("\"tool\": \"unit_test\""), std::string::npos);
  EXPECT_NE(out.find("\"scenario\": \"fig5,fig7\""), std::string::npos);
  EXPECT_NE(out.find("\"mechanism\": \"corelite,csfq\""), std::string::npos);
  EXPECT_NE(out.find("\"base_seed\": 42"), std::string::npos);
  EXPECT_NE(out.find("\"runs\": 8"), std::string::npos);
  EXPECT_NE(out.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(out.find("\"events\": 123456"), std::string::npos);
  // The digest is rendered exactly as the binaries print it, so the
  // manifest can be cross-checked against stdout.
  EXPECT_NE(out.find("\"result_digest\": \"1234abcd5678ef00\""), std::string::npos);
  EXPECT_NE(out.find("\"build\""), std::string::npos);
  EXPECT_NE(out.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(out.find("\"compiler\""), std::string::npos);
  EXPECT_NE(out.find("\"flags\""), std::string::npos);
  EXPECT_NE(out.find("\"build_type\""), std::string::npos);
  EXPECT_NE(out.find("\"wall_phases_ms\": {\"setup\": 1.5, \"run\": 250.25}"), std::string::npos);
  EXPECT_NE(out.find("\"exp_calls\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"extra\": {\"trace\": \"trace.json\"}"), std::string::npos);
}

TEST(Manifest, HotPathSectionListsEveryTableCounter) {
  // Distinct values per field, so a name wired to the wrong member shows.
  RunManifest m;
  std::uint64_t v = 100;
  for (const sim::HotPathField& f : sim::hotpath_fields()) m.hotpath.*f.member = v++;

  std::ostringstream os;
  write_manifest(os, m);
  const std::string out = os.str();
  const std::size_t section = out.find("\"hot_path_counters\": {");
  ASSERT_NE(section, std::string::npos);
  const std::string body = out.substr(section, out.find('}', section) - section);
  v = 100;
  for (const sim::HotPathField& f : sim::hotpath_fields()) {
    const std::string entry = "\"" + std::string{f.name} + "\": " + std::to_string(v++);
    EXPECT_NE(body.find(entry), std::string::npos) << entry;
  }
  EXPECT_EQ(sim::hotpath_fields().size() * sizeof(std::uint64_t), sizeof(sim::HotPathCounters));
}

}  // namespace
}  // namespace corelite::telemetry
