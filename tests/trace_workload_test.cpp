// Tests for the trace parser and trace-driven workload replay.
#include "traffic/trace_workload.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "net/dumbbell.hpp"
#include "sim/simulation.hpp"

namespace rbs::traffic {
namespace {

using sim::SimTime;

TEST(TraceParser, ParsesAndSortsRecords) {
  const auto records = parse_trace("2.5 10\n0.5 3\n# comment\n1.0 62  # inline\n\n");
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(records[0].arrival_sec, 0.5);
  EXPECT_EQ(records[0].size_packets, 3);
  EXPECT_DOUBLE_EQ(records[1].arrival_sec, 1.0);
  EXPECT_EQ(records[1].size_packets, 62);
  EXPECT_DOUBLE_EQ(records[2].arrival_sec, 2.5);
}

TEST(TraceParser, RejectsMalformedLines) {
  EXPECT_THROW(parse_trace("1.0\n"), std::runtime_error);          // missing size
  EXPECT_THROW(parse_trace("1.0 0\n"), std::runtime_error);        // size < 1
  EXPECT_THROW(parse_trace("-1.0 5\n"), std::runtime_error);       // negative time
  EXPECT_THROW(parse_trace("1.0 5 junk\n"), std::runtime_error);   // trailing token
}

TEST(TraceParser, RoundTripsThroughFormat) {
  const std::vector<TraceRecord> records{{0.25, 4}, {1.5, 100}};
  const auto reparsed = parse_trace(format_trace(records));
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_DOUBLE_EQ(reparsed[0].arrival_sec, 0.25);
  EXPECT_EQ(reparsed[1].size_packets, 100);
}

TEST(TraceParser, LoadsFromFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "rbs_trace_test.txt").string();
  {
    std::ofstream out{path};
    out << "0.1 5\n0.2 7\n";
  }
  const auto records = load_trace_file(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].size_packets, 7);
  std::filesystem::remove(path);
  EXPECT_THROW(load_trace_file(path), std::runtime_error);
}

net::DumbbellConfig small_topo() {
  net::DumbbellConfig cfg;
  cfg.num_leaves = 4;
  cfg.bottleneck_rate = core::BitsPerSec{10e6};
  cfg.buffer_packets = 200;
  cfg.access_delay_min = sim::SimTime::milliseconds(2);
  cfg.access_delay_max = sim::SimTime::milliseconds(10);
  return cfg;
}

TEST(TraceWorkload, ReplaysEveryRecordExactlyOnce) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo()};
  std::vector<TraceRecord> records;
  for (int i = 0; i < 20; ++i) records.push_back({0.1 * i, 5 + i});
  TraceWorkload wl{sim, topo, records, TraceWorkloadConfig{}};

  sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(wl.flows_in_trace(), 20u);
  EXPECT_EQ(wl.flows_started(), 20u);
  EXPECT_EQ(wl.flows_completed(), 20u);
  EXPECT_EQ(wl.flows_active(), 0u);

  // Sizes and start times match the trace.
  ASSERT_EQ(wl.completions().count(), 20u);
  std::int64_t total = 0;
  for (const auto& rec : wl.completions().records()) total += rec.size_packets;
  EXPECT_EQ(total, 20 * 5 + (0 + 19) * 20 / 2);
}

TEST(TraceWorkload, StartTimesFollowTheTrace) {
  sim::Simulation sim{1};
  net::Dumbbell topo{sim, small_topo()};
  TraceWorkload wl{sim, topo, {{0.5, 3}, {2.0, 3}}, TraceWorkloadConfig{}};
  sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(wl.completions().count(), 2u);
  // Records complete in trace order; starts equal the arrival times.
  EXPECT_EQ(wl.completions().records()[0].start, SimTime::from_seconds(0.5));
  EXPECT_EQ(wl.completions().records()[1].start, SimTime::from_seconds(2.0));
}

TEST(TraceWorkload, BufferSizeAffectsReplayedFct) {
  // The operator workflow: same trace, two buffer candidates.
  auto run = [](std::int64_t buffer) {
    sim::Simulation sim{3};
    auto topo_cfg = small_topo();
    topo_cfg.buffer_packets = buffer;
    net::Dumbbell topo{sim, topo_cfg};
    // A burst of simultaneous 62-packet flows: contends for the bottleneck.
    std::vector<TraceRecord> records;
    for (int i = 0; i < 12; ++i) records.push_back({0.01 * i, 62});
    TraceWorkload wl{sim, topo, records, TraceWorkloadConfig{}};
    sim.run_until(SimTime::seconds(30));
    return wl.completions().afct_seconds();
  };
  const double small = run(30);
  const double big = run(2000);
  // With a huge buffer nothing drops but queueing delay grows; with 30
  // packets there are drops. Either way both complete and differ.
  EXPECT_GT(small, 0.0);
  EXPECT_GT(big, 0.0);
  EXPECT_NE(small, big);
}

}  // namespace
}  // namespace rbs::traffic
