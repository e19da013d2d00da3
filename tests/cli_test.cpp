// Tests for the command-line argument parser and the option ->
// ScenarioSpec mapping used by tools/corelite_sim.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "cli/args.h"
#include "cli/scenario_args.h"

namespace corelite::cli {
namespace {

bool parse(ArgParser& p, std::vector<const char*> args, std::ostream& err) {
  args.insert(args.begin(), "prog");
  return p.parse(static_cast<int>(args.size()), args.data(), err);
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  ArgParser p{"prog", "test"};
  p.add_string("name", "alpha", "h");
  p.add_double("x", 2.5, "h");
  p.add_int("n", 7, "h");
  p.add_flag("v", "h");
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {}, err));
  EXPECT_EQ(p.get_string("name"), "alpha");
  EXPECT_DOUBLE_EQ(p.get_double("x"), 2.5);
  EXPECT_EQ(p.get_int("n"), 7);
  EXPECT_FALSE(p.get_flag("v"));
  EXPECT_FALSE(p.was_set("name"));
}

TEST(ArgParser, SpaceAndEqualsSyntax) {
  ArgParser p{"prog", "test"};
  p.add_string("name", "", "h");
  p.add_double("x", 0.0, "h");
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {"--name", "beta", "--x=3.25"}, err));
  EXPECT_EQ(p.get_string("name"), "beta");
  EXPECT_DOUBLE_EQ(p.get_double("x"), 3.25);
  EXPECT_TRUE(p.was_set("name"));
}

TEST(ArgParser, FlagNeedsNoValue) {
  ArgParser p{"prog", "test"};
  p.add_flag("verbose", "h");
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {"--verbose"}, err));
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser p{"prog", "test"};
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--nope", "1"}, err));
  EXPECT_NE(err.str().find("unknown option"), std::string::npos);
}

TEST(ArgParser, RejectsMalformedNumber) {
  ArgParser p{"prog", "test"};
  p.add_double("x", 0.0, "h");
  p.add_int("n", 0, "h");
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--x", "abc"}, err));
  std::ostringstream err2;
  EXPECT_FALSE(parse(p, {"--n", "1.5"}, err2));
}

// Regression: strtoll saturates silently on overflow (errno=ERANGE was
// never checked), so "--n 99999999999999999999" became LLONG_MAX.
TEST(ArgParser, RejectsOutOfRangeInteger) {
  ArgParser p{"prog", "test"};
  p.add_int("n", 0, "h");
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--n", "99999999999999999999"}, err));
  EXPECT_NE(err.str().find("out of range"), std::string::npos);
  std::ostringstream err2;
  EXPECT_FALSE(parse(p, {"--n", "-99999999999999999999"}, err2));
  // The boundary values themselves still parse.
  std::ostringstream err3;
  ArgParser q{"prog", "test"};
  q.add_int("n", 0, "h");
  ASSERT_TRUE(parse(q, {"--n", "9223372036854775807"}, err3));
  EXPECT_EQ(q.get_int("n"), INT64_MAX);
}

// Regression: "--x 1e999" parsed to inf (ERANGE ignored) and literal
// inf/nan passed straight through to option consumers.
TEST(ArgParser, RejectsNonFiniteDouble) {
  for (const char* bad : {"1e999", "-1e999", "inf", "-inf", "nan"}) {
    ArgParser p{"prog", "test"};
    p.add_double("x", 0.0, "h");
    std::ostringstream err;
    EXPECT_FALSE(parse(p, {"--x", bad}, err)) << bad;
    EXPECT_NE(err.str().find("out of range"), std::string::npos) << bad;
  }
}

TEST(ArgParser, RejectsMissingValue) {
  ArgParser p{"prog", "test"};
  p.add_string("name", "", "h");
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--name"}, err));
}

TEST(ArgParser, HelpPrintsUsageAndFails) {
  ArgParser p{"prog", "my tool"};
  p.add_string("name", "d", "the name option");
  std::ostringstream err;
  EXPECT_FALSE(parse(p, {"--help"}, err));
  EXPECT_NE(err.str().find("my tool"), std::string::npos);
  EXPECT_NE(err.str().find("the name option"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scenario mapping

TEST(ScenarioArgs, WeightListParsing) {
  auto w = parse_weight_list("1,2.5,3");
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, (std::vector<double>{1.0, 2.5, 3.0}));
  EXPECT_FALSE(parse_weight_list("").has_value());
  EXPECT_FALSE(parse_weight_list("1,x").has_value());
  EXPECT_FALSE(parse_weight_list("1,-2").has_value());
}

// Regression: NaN compares false against `w <= 0.0`, so "nan" used to
// slip through and poison every normalized-rate computation; "inf" and
// overflowing literals ("1e999" parses to inf) passed outright.
TEST(ScenarioArgs, WeightListRejectsNonFiniteWeights) {
  EXPECT_FALSE(parse_weight_list("nan").has_value());
  EXPECT_FALSE(parse_weight_list("1,nan,2").has_value());
  EXPECT_FALSE(parse_weight_list("-nan").has_value());
  EXPECT_FALSE(parse_weight_list("inf").has_value());
  EXPECT_FALSE(parse_weight_list("1,inf").has_value());
  EXPECT_FALSE(parse_weight_list("1e999").has_value());
  EXPECT_FALSE(parse_weight_list("1,1e999,2").has_value());
}

// Regression: empty items between or around delimiters must not be
// silently skipped ("1,,2") or dropped ("1,2,", ",1").
TEST(ScenarioArgs, WeightListRejectsEmptyItems) {
  EXPECT_FALSE(parse_weight_list("1,,2").has_value());
  EXPECT_FALSE(parse_weight_list("1,2,").has_value());
  EXPECT_FALSE(parse_weight_list(",1").has_value());
  EXPECT_FALSE(parse_weight_list(",").has_value());
}

TEST(ScenarioArgs, DefaultsProduceFig5Corelite) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {}, err));
  auto spec = spec_from_args(p, err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->mechanism, scenario::Mechanism::Corelite);
  EXPECT_EQ(spec->num_flows, 10u);
}

TEST(ScenarioArgs, FullOverrides) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p,
                    {"--scenario", "fig3", "--mechanism", "csfq", "--duration", "42",
                     "--seed", "99", "--epoch-ms", "50", "--k1", "2", "--qthresh", "12",
                     "--link-delay-ms", "10"},
                    err));
  auto spec = spec_from_args(p, err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->mechanism, scenario::Mechanism::Csfq);
  EXPECT_EQ(spec->num_flows, 20u);
  EXPECT_DOUBLE_EQ(spec->duration.sec(), 42.0);
  EXPECT_EQ(spec->seed, 99u);
  EXPECT_DOUBLE_EQ(spec->corelite.core_epoch.ms(), 50.0);
  EXPECT_DOUBLE_EQ(spec->corelite.k1, 2.0);
  EXPECT_DOUBLE_EQ(spec->corelite.q_thresh_pkts, 12.0);
  EXPECT_DOUBLE_EQ(spec->topology.link_delay.ms(), 10.0);
}

TEST(ScenarioArgs, WeightsMustMatchFlowCount) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {"--weights", "1,2,3"}, err));  // fig5 has 10 flows
  EXPECT_FALSE(spec_from_args(p, err).has_value());
  EXPECT_NE(err.str().find("exactly 10"), std::string::npos);
}

TEST(ScenarioArgs, RejectsUnknownEnumValues) {
  for (const auto& bad : std::vector<std::vector<const char*>>{
           {"--scenario", "fig99"},
           {"--mechanism", "magic"},
           {"--selector", "psychic"},
           {"--detector", "vibes"},
           {"--adaptation", "none"},
           {"--pacing", "vibes"}}) {
    ArgParser p{"prog", "test"};
    register_scenario_options(p);
    std::ostringstream err;
    ASSERT_TRUE(parse(p, bad, err));
    EXPECT_FALSE(spec_from_args(p, err).has_value()) << bad[0] << " " << bad[1];
  }
}

// Regression: a non-positive epoch or a negative link delay used to be
// copied into the spec unchecked, and the run never finished.
TEST(ScenarioArgs, RejectsNonPositiveEpoch) {
  for (const char* bad : {"0", "-5"}) {
    ArgParser p{"prog", "test"};
    register_scenario_options(p);
    std::ostringstream err;
    ASSERT_TRUE(parse(p, {"--epoch-ms", bad}, err));
    EXPECT_FALSE(spec_from_args(p, err).has_value()) << bad;
    EXPECT_NE(err.str().find("--epoch-ms must be > 0"), std::string::npos) << bad;
  }
}

TEST(ScenarioArgs, RejectsNegativeLinkDelay) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p, {"--link-delay-ms", "-1"}, err));
  EXPECT_FALSE(spec_from_args(p, err).has_value());
  EXPECT_NE(err.str().find("--link-delay-ms must be >= 0"), std::string::npos);
}

TEST(ScenarioArgs, VariantSelectionsApply) {
  ArgParser p{"prog", "test"};
  register_scenario_options(p);
  std::ostringstream err;
  ASSERT_TRUE(parse(p,
                    {"--selector", "cache", "--detector", "ewma", "--adaptation", "aimd",
                     "--pacing", "poisson"},
                    err));
  auto spec = spec_from_args(p, err);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->corelite.selector, qos::SelectorKind::MarkerCache);
  EXPECT_EQ(spec->corelite.detector, qos::DetectorKind::Ewma);
  EXPECT_EQ(spec->corelite.adapt.kind, qos::AdaptKind::Aimd);
  EXPECT_EQ(spec->corelite.pacing, qos::PacingMode::Poisson);
}

}  // namespace
}  // namespace corelite::cli
