// Unit tests for the stats module: time series semantics, Jain index,
// the weighted max-min water-filling oracle (including the paper's own
// expected numbers), flow tracking and CSV emission.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "net/types.h"
#include "stats/csv_writer.h"
#include "stats/fairness.h"
#include "stats/flow_tracker.h"
#include "stats/time_series.h"

namespace corelite::stats {
namespace {

// ---------------------------------------------------------------------------
// TimeSeries

TEST(TimeSeries, StepValueSemantics) {
  TimeSeries ts;
  ts.add(1.0, 10.0);
  ts.add(3.0, 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(0.5), 0.0);   // before first sample
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 10.0);  // right-continuous
  EXPECT_DOUBLE_EQ(ts.value_at(2.999), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(3.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100.0), 20.0);
}

TEST(TimeSeries, AverageOverIsTimeWeighted) {
  TimeSeries ts;
  ts.add(0.0, 10.0);
  ts.add(1.0, 30.0);
  // [0,2]: 10 for 1 s + 30 for 1 s => mean 20.
  EXPECT_DOUBLE_EQ(ts.average_over(0.0, 2.0), 20.0);
  // [0.5, 1.5]: 10 for 0.5 + 30 for 0.5 => mean 20.
  EXPECT_DOUBLE_EQ(ts.average_over(0.5, 1.5), 20.0);
  // [1, 2]: constant 30.
  EXPECT_DOUBLE_EQ(ts.average_over(1.0, 2.0), 30.0);
}

TEST(TimeSeries, AverageOfEmptyIsZero) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.average_over(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.value_at(5.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.last_value(), 0.0);
}

TEST(TimeSeries, MinMaxOverWindow) {
  TimeSeries ts;
  ts.add(0.0, 5.0);
  ts.add(1.0, 1.0);
  ts.add(2.0, 9.0);
  ts.add(3.0, 4.0);
  EXPECT_DOUBLE_EQ(ts.min_over(0.5, 2.5), 1.0);
  EXPECT_DOUBLE_EQ(ts.max_over(0.5, 2.5), 9.0);
  // Sample-free window: the step function still carries the last value
  // (4.0 from t=3) across it, consistent with value_at/average_over.
  EXPECT_DOUBLE_EQ(ts.min_over(10.0, 20.0), 4.0);
  EXPECT_DOUBLE_EQ(ts.max_over(10.0, 20.0), 4.0);
}

TEST(TimeSeries, MinMaxIncludeValueCarriedIntoWindow) {
  TimeSeries ts;
  ts.add(0.0, 7.0);
  ts.add(5.0, 2.0);
  // (1, 4] has no samples, but the series is 7.0 throughout.
  EXPECT_DOUBLE_EQ(ts.min_over(1.0, 4.0), 7.0);
  EXPECT_DOUBLE_EQ(ts.max_over(1.0, 4.0), 7.0);
  // A window straddling a sample sees both the carried-in and the new value.
  EXPECT_DOUBLE_EQ(ts.min_over(1.0, 6.0), 2.0);
  EXPECT_DOUBLE_EQ(ts.max_over(1.0, 6.0), 7.0);
  // Before the first sample the series is 0 (value_at semantics).
  TimeSeries late;
  late.add(10.0, 5.0);
  EXPECT_DOUBLE_EQ(late.min_over(0.0, 20.0), 0.0);
  EXPECT_DOUBLE_EQ(late.max_over(0.0, 20.0), 5.0);
  // Empty series and inverted windows stay 0.
  EXPECT_DOUBLE_EQ(TimeSeries{}.min_over(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.max_over(4.0, 1.0), 0.0);
}

// ---------------------------------------------------------------------------
// Jain index

TEST(Fairness, JainPerfectlyFair) {
  const std::vector<double> x{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 1.0);
}

TEST(Fairness, JainMaximallyUnfair) {
  const std::vector<double> x{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(x), 0.25);  // 1/n
}

TEST(Fairness, JainWeightedNormalization) {
  // Rates exactly proportional to weights are perfectly weighted-fair.
  const std::vector<double> rates{10.0, 20.0, 30.0};
  const std::vector<double> weights{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(jain_index(rates, weights), 1.0);
}

TEST(Fairness, JainEmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(jain_index(std::vector<double>{}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

// ---------------------------------------------------------------------------
// Weighted max-min water-filling

TEST(MaxMin, SingleLinkEqualWeights) {
  const auto alloc = weighted_max_min({90.0}, {{1, 1.0, {0}}, {2, 1.0, {0}}, {3, 1.0, {0}}});
  EXPECT_DOUBLE_EQ(alloc.at(1), 30.0);
  EXPECT_DOUBLE_EQ(alloc.at(2), 30.0);
  EXPECT_DOUBLE_EQ(alloc.at(3), 30.0);
}

TEST(MaxMin, SingleLinkWeighted) {
  const auto alloc = weighted_max_min({120.0}, {{1, 1.0, {0}}, {2, 2.0, {0}}, {3, 3.0, {0}}});
  EXPECT_DOUBLE_EQ(alloc.at(1), 20.0);
  EXPECT_DOUBLE_EQ(alloc.at(2), 40.0);
  EXPECT_DOUBLE_EQ(alloc.at(3), 60.0);
}

TEST(MaxMin, BottleneckedFlowFreesOtherLink) {
  // Flow 1 crosses both links; flow 2 only link 0; flow 3 only link 1.
  // Link 0 cap 10, link 1 cap 100: flow 1 and 2 split link 0 (5 each),
  // flow 3 then takes the rest of link 1 (95).
  const auto alloc =
      weighted_max_min({10.0, 100.0}, {{1, 1.0, {0, 1}}, {2, 1.0, {0}}, {3, 1.0, {1}}});
  EXPECT_DOUBLE_EQ(alloc.at(1), 5.0);
  EXPECT_DOUBLE_EQ(alloc.at(2), 5.0);
  EXPECT_DOUBLE_EQ(alloc.at(3), 95.0);
}

TEST(MaxMin, PaperExpectedValuesAllTwentyFlows) {
  // The paper's §4.1 calculation: with all 20 flows active every congested link
  // carries weight 20, so the share is 500/20 = 25 pkt/s per unit weight.
  std::vector<MaxMinFlow> flows;
  auto weight_of = [](std::size_t f) {
    if (f == 5 || f == 15) return 3.0;
    if (f == 1 || f == 11 || f == 16) return 1.0;
    return 2.0;
  };
  auto links_of = [](std::size_t f) -> std::vector<std::size_t> {
    if (f <= 5) return {0};
    if (f <= 8) return {0, 1};
    if (f <= 10) return {0, 1, 2};
    if (f <= 12) return {1};
    if (f <= 15) return {1, 2};
    return {2};
  };
  for (std::size_t f = 1; f <= 20; ++f) {
    flows.push_back({static_cast<net::FlowId>(f), weight_of(f), links_of(f)});
  }
  const auto alloc = weighted_max_min({500.0, 500.0, 500.0}, flows);
  EXPECT_NEAR(alloc.at(5), 75.0, 1e-9);   // weight 3
  EXPECT_NEAR(alloc.at(15), 75.0, 1e-9);
  EXPECT_NEAR(alloc.at(1), 25.0, 1e-9);   // weight 1
  EXPECT_NEAR(alloc.at(11), 25.0, 1e-9);
  EXPECT_NEAR(alloc.at(16), 25.0, 1e-9);
  EXPECT_NEAR(alloc.at(2), 50.0, 1e-9);   // weight 2
  EXPECT_NEAR(alloc.at(9), 50.0, 1e-9);   // three congested links, same share
}

TEST(MaxMin, PaperExpectedValuesFifteenFlows) {
  // Without flows 1, 9, 10, 11, 16 each link carries weight 15:
  // 500/15 = 33.33 pkt/s per unit weight.
  std::vector<MaxMinFlow> flows;
  auto weight_of = [](std::size_t f) {
    if (f == 5 || f == 15) return 3.0;
    return 2.0;
  };
  auto links_of = [](std::size_t f) -> std::vector<std::size_t> {
    if (f <= 5) return {0};
    if (f <= 8) return {0, 1};
    if (f <= 12) return {1};
    if (f <= 15) return {1, 2};
    return {2};
  };
  for (std::size_t f : {2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15, 17, 18, 19, 20}) {
    flows.push_back({static_cast<net::FlowId>(f), weight_of(f), links_of(f)});
  }
  const auto alloc = weighted_max_min({500.0, 500.0, 500.0}, flows);
  EXPECT_NEAR(alloc.at(5), 100.0, 1e-9);   // 33.33 * 3 (paper prints 99.99)
  EXPECT_NEAR(alloc.at(15), 100.0, 1e-9);
  EXPECT_NEAR(alloc.at(2), 500.0 * 2 / 15, 1e-9);  // 66.66
  EXPECT_NEAR(alloc.at(20), 500.0 * 2 / 15, 1e-9);
}

TEST(MaxMin, ConservationNeverExceedsCapacity) {
  const std::vector<double> caps{100.0, 60.0};
  const std::vector<MaxMinFlow> flows{
      {1, 1.0, {0}}, {2, 2.0, {0, 1}}, {3, 1.5, {1}}, {4, 0.5, {0, 1}}};
  const auto alloc = weighted_max_min(caps, flows);
  double link0 = alloc.at(1) + alloc.at(2) + alloc.at(4);
  double link1 = alloc.at(2) + alloc.at(3) + alloc.at(4);
  EXPECT_LE(link0, caps[0] + 1e-9);
  EXPECT_LE(link1, caps[1] + 1e-9);
}

TEST(MaxMin, FlowWithNoLinksGetsZero) {
  const auto alloc = weighted_max_min({10.0}, {{1, 1.0, {}}, {2, 1.0, {0}}});
  EXPECT_DOUBLE_EQ(alloc.at(1), 0.0);
  EXPECT_DOUBLE_EQ(alloc.at(2), 10.0);
}

// ---------------------------------------------------------------------------
// FlowTracker

TEST(FlowTracker, CountsAndSeries) {
  FlowTracker t;
  t.declare_flow(1, 2.0);
  t.record_rate(1, sim::SimTime::seconds(0), 10.0);
  t.record_rate(1, sim::SimTime::seconds(1), 20.0);
  t.on_sent(1);
  t.on_sent(1);
  t.on_delivered(1);
  t.on_dropped(1);
  t.on_feedback(1, 3);
  t.sample_cumulative(sim::SimTime::seconds(2));

  const auto& fs = t.series(1);
  EXPECT_DOUBLE_EQ(fs.weight, 2.0);
  EXPECT_EQ(fs.sent, 2u);
  EXPECT_EQ(fs.delivered, 1u);
  EXPECT_EQ(fs.dropped, 1u);
  EXPECT_EQ(fs.feedback_received, 3u);
  EXPECT_DOUBLE_EQ(fs.allotted_rate.value_at(1.5), 20.0);
  EXPECT_DOUBLE_EQ(fs.cumulative_delivered.value_at(2.0), 1.0);
  EXPECT_EQ(t.total_delivered(), 1u);
  EXPECT_EQ(t.total_dropped(), 1u);
}

TEST(FlowTracker, EveryUpdatePathReachesEveryReader) {
  FlowTracker t;
  t.declare_flow(7, 3.0);
  t.declare_flow(2, 1.0);
  for (int i = 0; i < 5; ++i) t.on_sent(7);
  t.on_delivered(7);
  t.on_delivered(7);
  // Delays are sampled on every kDelaySampleStride-th delivery of the
  // flow, whichever overload delivered the packets before it.
  for (std::uint64_t i = 0; i < 2 * FlowTracker::kDelaySampleStride; ++i) {
    t.on_delivered(7, sim::TimeDelta::millis(static_cast<double>(i)));
  }
  t.on_dropped(7);
  t.on_feedback(7);
  t.on_feedback(7, 4);
  t.add_synthesized(7, /*delivered_n=*/100, /*sent_n=*/200, /*dropped_n=*/3);
  t.add_synthesized(2, 10, 11, 1);
  t.on_dropped(2);
  t.record_rate(7, sim::SimTime::seconds(1), 42.0);
  t.sample_cumulative(sim::SimTime::seconds(2));

  const std::uint64_t stride = FlowTracker::kDelaySampleStride;
  const auto& s7 = t.series(7);
  EXPECT_DOUBLE_EQ(s7.weight, 3.0);
  EXPECT_EQ(s7.sent, 205u);
  EXPECT_EQ(s7.delivered, 2u + 2 * stride + 100u);
  EXPECT_EQ(s7.dropped, 4u);
  EXPECT_EQ(s7.feedback_received, 5u);
  // Deliveries 8 and 16 of the flow carry the delays 5 ms and 13 ms.
  ASSERT_EQ(s7.delay_samples.size(), 2u);
  EXPECT_DOUBLE_EQ(s7.delay_samples[0], 0.001 * static_cast<double>(stride - 3));
  EXPECT_DOUBLE_EQ(s7.delay_samples[1], 0.001 * static_cast<double>(2 * stride - 3));
  EXPECT_DOUBLE_EQ(s7.allotted_rate.value_at(1.0), 42.0);
  EXPECT_DOUBLE_EQ(s7.cumulative_delivered.value_at(2.0),
                   static_cast<double>(2 + 2 * stride + 100));

  const auto& s2 = t.series(2);
  EXPECT_EQ(s2.sent, 11u);
  EXPECT_EQ(s2.delivered, 10u);
  EXPECT_EQ(s2.dropped, 2u);
  EXPECT_EQ(s2.feedback_received, 0u);
  EXPECT_TRUE(s2.delay_samples.empty());

  // all() walks the flows in id order and yields the same objects
  // series() returns.
  std::vector<net::FlowId> ids;
  for (const auto& [id, fs] : t.all()) {
    ids.push_back(id);
    EXPECT_EQ(&fs, &t.series(id));
  }
  EXPECT_EQ(ids, (std::vector<net::FlowId>{2, 7}));
  EXPECT_EQ(t.all().size(), 2u);
  EXPECT_EQ(t.total_delivered(), s7.delivered + s2.delivered);
  EXPECT_EQ(t.total_dropped(), 6u);
  EXPECT_FALSE(t.has(3));
  EXPECT_THROW((void)t.series(3), std::out_of_range);
}

// ---------------------------------------------------------------------------
// CSV / table writers

TEST(CsvWriter, GridAndHeader) {
  TimeSeries a;
  a.add(0.0, 1.0);
  a.add(1.0, 2.0);
  TimeSeries b;
  b.add(0.5, 10.0);
  std::ostringstream os;
  write_csv(os, {{"a", &a}, {"b", &b}}, 0.0, 2.0, 1.0);
  EXPECT_EQ(os.str(), "t,a,b\n0,1,0\n1,2,10\n2,2,10\n");
}

TEST(CsvWriter, TableContainsValues) {
  TimeSeries a;
  a.add(0.0, 3.25);
  std::ostringstream os;
  write_table(os, {{"x", &a}}, 0.0, 1.0, 1.0);
  const std::string out = os.str();
  EXPECT_NE(out.find("3.25"), std::string::npos);
  EXPECT_NE(out.find("x"), std::string::npos);
}

}  // namespace
}  // namespace corelite::stats
