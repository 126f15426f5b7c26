// Unit tests for the measurement utilities: OnlineStats, Histogram,
// TimeSeries, PeriodicSampler, UtilizationMeter, FctTracker.
#include <gtest/gtest.h>

#include "core/units.hpp"
#include "net/drop_tail_queue.hpp"
#include "net/link.hpp"
#include "sim/simulation.hpp"
#include "stats/fct_tracker.hpp"
#include "stats/histogram.hpp"
#include "stats/online_stats.hpp"
#include "stats/time_series.hpp"
#include "stats/utilization.hpp"

namespace rbs::stats {
namespace {

using namespace rbs::sim::literals;
using sim::SimTime;

TEST(OnlineStats, BasicMoments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsSafe) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(OnlineStats, MergeMatchesCombinedStream) {
  OnlineStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>((i * 37) % 17);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptySides) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  OnlineStats a_copy = a;
  a.merge(b);  // empty rhs: no change
  EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
  b.merge(a);  // empty lhs: adopt rhs
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  EXPECT_EQ(b.count(), 2u);
}

TEST(Histogram, BinsAndDensityIntegrateToOne) {
  Histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 1000; ++i) h.add(static_cast<double>(i % 10) + 0.5);
  EXPECT_EQ(h.total(), 1000u);
  double integral = 0.0;
  for (int b = 0; b < h.bins(); ++b) integral += h.density(b) * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-12);
  EXPECT_EQ(h.bin_count(3), 100u);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  Histogram h{0.0, 10.0, 10};
  h.add(-5.0);
  h.add(15.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, WeightedAdds) {
  Histogram h{0.0, 4.0, 4};
  h.add(0.5, 10);
  h.add(2.5, 30);
  EXPECT_EQ(h.total(), 40u);
  EXPECT_DOUBLE_EQ(h.density(2), 30.0 / 40.0);
}

TEST(TimeSeries, RecordsAndSummarizes) {
  TimeSeries ts;
  ts.record(1_ms, 10.0);
  ts.record(2_ms, 20.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.summary().mean(), 15.0);
  EXPECT_EQ(ts.values(), (std::vector<double>{10.0, 20.0}));
}

TEST(TimeSeries, CsvFormat) {
  TimeSeries ts;
  ts.record(SimTime::milliseconds(1500), 2.5);
  EXPECT_EQ(ts.to_csv(), "1.500000000,2.5\n");
}

TEST(PeriodicSampler, SamplesAtInterval) {
  sim::Simulation sim{1};
  int calls = 0;
  PeriodicSampler sampler{sim, 10_ms, [&] { return static_cast<double>(++calls); }};
  sampler.start(5_ms);
  sim.run_until(100_ms);
  sampler.stop();
  // Ticks at 5,15,...,95 ms -> 10 samples.
  EXPECT_EQ(sampler.series().size(), 10u);
  EXPECT_EQ(sampler.series().points().front().time, 5_ms);
  sim.run_until(200_ms);
  EXPECT_EQ(sampler.series().size(), 10u);  // stopped
}

TEST(UtilizationMeter, MeasuresDeliveredFraction) {
  sim::Simulation sim{1};
  class NullSink final : public net::PacketSink {
   public:
    void receive(const net::Packet&) override {}
  } null_sink;
  net::Link link{sim, "l", net::Link::Config{core::BitsPerSec{1e6}, SimTime::zero()},
                 std::make_unique<net::DropTailQueue>(100), null_sink};
  UtilizationMeter meter{sim, link};
  meter.begin();
  // Send 50 packets of 1000 B = 0.4 Mbit over a 1 s window on a 1 Mb/s link.
  net::Packet p;
  p.size_bytes = 1000;
  for (int i = 0; i < 50; ++i) link.receive(p);
  sim.run_until(SimTime::seconds(1));
  EXPECT_NEAR(meter.utilization(), 0.4, 1e-9);
  EXPECT_EQ(meter.bits(), 400'000u);
}

TEST(UtilizationMeter, BeginResetsWindow) {
  sim::Simulation sim{1};
  class NullSink final : public net::PacketSink {
   public:
    void receive(const net::Packet&) override {}
  } null_sink;
  net::Link link{sim, "l", net::Link::Config{core::BitsPerSec{1e6}, SimTime::zero()},
                 std::make_unique<net::DropTailQueue>(100), null_sink};
  UtilizationMeter meter{sim, link};
  meter.begin();
  net::Packet p;
  p.size_bytes = 1000;
  link.receive(p);
  sim.run_until(SimTime::seconds(1));
  meter.begin();  // restart: previous traffic no longer counts
  sim.run_until(SimTime::seconds(2));
  EXPECT_DOUBLE_EQ(meter.utilization(), 0.0);
}

TEST(FctTracker, FiltersByStartTimeAndSize) {
  FctTracker t;
  t.record(10, SimTime::seconds(1), SimTime::seconds(2));   // 1 s
  t.record(10, SimTime::seconds(5), SimTime::seconds(8));   // 3 s
  t.record(500, SimTime::seconds(6), SimTime::seconds(16)); // 10 s

  EXPECT_EQ(t.count(), 3u);
  EXPECT_NEAR(t.afct_seconds(), (1 + 3 + 10) / 3.0, 1e-12);

  const auto late = t.afct_filtered(SimTime::seconds(4));
  EXPECT_EQ(late.count(), 2u);
  EXPECT_NEAR(late.mean(), 6.5, 1e-12);

  const auto small = t.afct_filtered(SimTime::zero(), 0, 100);
  EXPECT_EQ(small.count(), 2u);
  EXPECT_NEAR(small.mean(), 2.0, 1e-12);
}

}  // namespace
}  // namespace rbs::stats
