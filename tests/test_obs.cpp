// Observability-layer tests: registry semantics (counter/gauge/histogram
// math, registration collisions), instance counter stores (per-instance
// reads, summed names, retirement on destroy and reset, concurrent
// snapshots), sharded-counter exactness under the parallel runtime, merge determinism between GPLUS_THREADS=1 and N,
// snapshot/delta algebra, deterministic-only filtering, exporter golden
// output, and the virtual-clock trace log. The CTest ".threads1" variant
// re-runs every case under GPLUS_THREADS=1.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>

#include "core/parallel.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gplus::obs {
namespace {

// --- Counter ---------------------------------------------------------------

TEST(CounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.add(0);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ShardedCellsAreExactUnderParallelFor) {
  // Every lane hammers the same counter; the sharded cells must lose
  // nothing, at any lane count. Integer sums over the cells are exact.
  Counter c;
  constexpr std::size_t kN = 200'000;
  core::parallel_for(kN, 1'000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) c.add();
  });
  EXPECT_EQ(c.value(), kN);
}

TEST(CounterTest, MergedTotalIdenticalAtOneLaneAndFour) {
  const auto run = [](std::size_t lanes) {
    core::set_thread_count(lanes);
    Counter c;
    core::parallel_for(50'000, 500, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) c.add(i % 7);
    });
    core::set_thread_count(0);
    return c.value();
  };
  EXPECT_EQ(run(1), run(4));
}

// --- Gauge -----------------------------------------------------------------

TEST(GaugeTest, SetAddValue) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
}

// --- Histogram -------------------------------------------------------------

TEST(HistogramTest, BucketsCountAndSum) {
  Histogram h({10, 20, 30});
  // Bucket i counts values <= bounds[i]; one implicit overflow bucket.
  h.record(0);
  h.record(10);   // both land in le10
  h.record(11);   // le20
  h.record(30);   // le30
  h.record(31);   // overflow
  h.record(1'000);  // overflow
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 30 + 31 + 1'000);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 2u);
}

TEST(HistogramTest, RejectsEmptyOrNonIncreasingBounds) {
  EXPECT_THROW(Histogram({}), std::logic_error);
  EXPECT_THROW(Histogram({5, 5}), std::logic_error);
  EXPECT_THROW(Histogram({10, 5}), std::logic_error);
}

TEST(HistogramTest, ShardedRecordingIsExactAndLaneIndependent) {
  const auto run = [](std::size_t lanes) {
    core::set_thread_count(lanes);
    Histogram h({100, 1'000});
    core::parallel_for(30'000, 300, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) h.record(i % 2'000);
    });
    core::set_thread_count(0);
    return std::tuple(h.count(), h.sum(), h.bucket_counts());
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(std::get<0>(serial), 30'000u);
  EXPECT_EQ(serial, parallel);
}

// --- Registry --------------------------------------------------------------

TEST(RegistryTest, FirstUseCreatesLaterUsesReturnTheSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  a.add(3);
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
  reg.gauge("x.level").set(-4);
  reg.histogram("x.hist", {1, 2}).record(2);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(RegistryTest, MismatchedReRegistrationThrows) {
  MetricsRegistry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::logic_error);
  EXPECT_THROW(reg.histogram("m", {1}), std::logic_error);
  // Same kind, different determinism tag.
  EXPECT_THROW(reg.counter("m", Determinism::kRunDependent), std::logic_error);
  // Same kind, different histogram bounds.
  reg.histogram("h", {1, 2, 3});
  EXPECT_THROW(reg.histogram("h", {1, 2}), std::logic_error);
  // Matching re-registration is fine.
  EXPECT_NO_THROW(reg.counter("m"));
  EXPECT_NO_THROW(reg.histogram("h", {1, 2, 3}));
}

TEST(RegistryTest, SnapshotCapturesEveryKind) {
  MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.gauge("g").set(-9);
  Histogram& h = reg.histogram("h", {5});
  h.record(3);
  h.record(8);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_TRUE(snap.contains("c"));
  EXPECT_FALSE(snap.contains("missing"));
  EXPECT_EQ(snap.value("c"), 7);
  EXPECT_EQ(snap.value("g"), -9);
  EXPECT_EQ(snap.value("h"), 2);  // histogram value() is the sample count
  EXPECT_EQ(snap.value("missing"), 0);
  const auto& entry = snap.entries.at("h");
  EXPECT_EQ(entry.kind, MetricKind::kHistogram);
  EXPECT_EQ(entry.sum, 11u);
  EXPECT_EQ(entry.bounds, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(entry.buckets, (std::vector<std::uint64_t>{1, 1}));
}

TEST(RegistryTest, DeterministicOnlyFiltersRunDependentMetrics) {
  MetricsRegistry reg;
  reg.counter("det").add(1);
  reg.counter("sched", Determinism::kRunDependent).add(1);
  EXPECT_EQ(reg.snapshot().entries.size(), 2u);
  const MetricsSnapshot filtered = reg.snapshot(/*deterministic_only=*/true);
  EXPECT_EQ(filtered.entries.size(), 1u);
  EXPECT_TRUE(filtered.contains("det"));
  EXPECT_FALSE(filtered.contains("sched"));
}

TEST(RegistryTest, GlobalIsASingleProcessWideInstance) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

// --- Counter store ---------------------------------------------------------

struct PairStats {
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
};
constexpr CounterField<PairStats> kPairFields[] = {
    {"sent", &PairStats::sent},
    {"lost", &PairStats::lost},
};

TEST(CounterStoreTest, CellOfFindsEachRow) {
  static_assert(cell_of(kPairFields, &PairStats::sent) == 0);
  static_assert(cell_of(kPairFields, &PairStats::lost) == 1);
}

TEST(CounterStoreTest, EachInstanceReadsItsOwnCountsAndTheNameSumsThem) {
  MetricsRegistry reg;
  CounterStore a(2, reg);
  CounterStore b(2, reg);
  a.export_fields(kPairFields, "link.");
  b.export_fields(kPairFields, "link.");
  a.add(0, 3);
  a.add(1);
  b.add(0, 4);

  PairStats sa;
  PairStats sb;
  a.read_fields(kPairFields, sa);
  b.read_fields(kPairFields, sb);
  EXPECT_EQ(sa.sent, 3u);
  EXPECT_EQ(sa.lost, 1u);
  EXPECT_EQ(sb.sent, 4u);
  EXPECT_EQ(sb.lost, 0u);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("link.sent"), 7);
  EXPECT_EQ(snap.value("link.lost"), 1);
  EXPECT_EQ(snap.entries.at("link.sent").kind, MetricKind::kCounter);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(CounterStoreTest, DestroyAndResetRetireCountsIntoTheName) {
  MetricsRegistry reg;
  CounterStore kept(1, reg);
  kept.export_cell(0, "n");
  kept.add(0, 2);
  {
    CounterStore gone(1, reg);
    gone.export_cell(0, "n");
    gone.add(0, 5);
    EXPECT_EQ(reg.snapshot().value("n"), 7);
  }
  EXPECT_EQ(reg.snapshot().value("n"), 7);  // monotonic past destruction

  kept.reset();
  EXPECT_EQ(kept.value(0), 0u);
  EXPECT_EQ(reg.snapshot().value("n"), 7);  // and past a reset
  kept.add(0);
  EXPECT_EQ(reg.snapshot().value("n"), 8);
}

TEST(CounterStoreTest, SharesNamesWithRegistryCountersAndMovesKeepExports) {
  MetricsRegistry reg;
  reg.counter("mixed").add(10);
  CounterStore first(2, reg);
  EXPECT_FALSE(first.exported());
  first.export_cell(0, "mixed");
  first.export_cell(0, "alias");  // one cell under two names
  first.export_cell(1, "mixed");
  EXPECT_TRUE(first.exported());
  first.add(0, 1);
  first.add(1, 2);
  CounterStore moved(std::move(first));
  moved.add(0, 4);
  EXPECT_EQ(reg.snapshot().value("mixed"), 17);
  EXPECT_EQ(reg.snapshot().value("alias"), 5);
  EXPECT_EQ(reg.counter("mixed").value(), 10u);  // only the shared part

  std::array<std::uint64_t, 2> both{};
  moved.read_array(0, both);
  EXPECT_EQ(both, (std::array<std::uint64_t, 2>{5, 2}));
}

TEST(CounterStoreTest, ExportUnderAnotherKindOrTagThrows) {
  MetricsRegistry reg;
  reg.gauge("g");
  reg.counter("sched", Determinism::kRunDependent);
  CounterStore store(1, reg);
  EXPECT_THROW(store.export_cell(0, "g"), std::logic_error);
  EXPECT_THROW(store.export_cell(0, "sched"), std::logic_error);
  EXPECT_FALSE(store.exported());
}

TEST(CounterStoreTest, SnapshotOnAnotherThreadWhileTheOwnerCounts) {
  // The owner adds while a reader snapshots: every cell is atomic, so this
  // is race-free (the TSan build runs it), and each read is a value the
  // single writer actually passed through.
  MetricsRegistry reg;
  CounterStore store(1, reg);
  store.export_cell(0, "hot");
  constexpr std::uint64_t kAdds = 100'000;
  std::thread reader([&] {
    std::int64_t last = 0;
    for (int i = 0; i < 200; ++i) {
      const std::int64_t now = reg.snapshot().value("hot");
      EXPECT_GE(now, last);
      last = now;
    }
  });
  for (std::uint64_t i = 0; i < kAdds; ++i) store.add(0);
  reader.join();
  EXPECT_EQ(reg.snapshot().value("hot"), static_cast<std::int64_t>(kAdds));
}

// --- Snapshot delta --------------------------------------------------------

TEST(DeltaTest, CountersAndHistogramsSubtractGaugesKeepAfter) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h", {10});
  c.add(5);
  g.set(100);
  h.record(4);
  const MetricsSnapshot before = reg.snapshot();

  c.add(7);
  g.set(42);
  h.record(12);
  h.record(6);
  const MetricsSnapshot d = delta(reg.snapshot(), before);

  EXPECT_EQ(d.value("c"), 7);
  EXPECT_EQ(d.value("g"), 42);  // gauges are levels, not rates
  const auto& dh = d.entries.at("h");
  EXPECT_EQ(dh.count, 2u);
  EXPECT_EQ(dh.sum, 18u);
  EXPECT_EQ(dh.buckets, (std::vector<std::uint64_t>{1, 1}));
}

TEST(DeltaTest, EntriesAbsentFromBeforePassThroughWhole) {
  MetricsRegistry reg;
  reg.counter("old").add(2);
  const MetricsSnapshot before = reg.snapshot();
  reg.counter("fresh").add(9);
  const MetricsSnapshot d = delta(reg.snapshot(), before);
  EXPECT_EQ(d.value("fresh"), 9);
  EXPECT_EQ(d.value("old"), 0);
}

TEST(DeltaTest, BeforeOnlyEntriesAreDropped) {
  MetricsSnapshot before;
  before.entries["gone"].value = 3;
  const MetricsSnapshot d = delta(MetricsSnapshot{}, before);
  EXPECT_TRUE(d.entries.empty());
}

// --- Exporters -------------------------------------------------------------

MetricsSnapshot exporter_fixture() {
  MetricsRegistry reg;
  reg.counter("app.requests").add(12);
  reg.gauge("app.depth").set(-3);
  Histogram& h = reg.histogram("app.cost", {1, 10});
  h.record(1);
  h.record(5);
  h.record(99);
  return reg.snapshot();
}

TEST(ExporterTest, TextGoldenOutput) {
  EXPECT_EQ(to_text(exporter_fixture()),
            "histogram app.cost count=3 sum=105 le1=1 le10=1 inf=1\n"
            "gauge app.depth -3\n"
            "counter app.requests 12\n");
}

TEST(ExporterTest, JsonGoldenOutput) {
  EXPECT_EQ(to_json(exporter_fixture()),
            "{\n"
            "  \"counters\": {\n"
            "    \"app.requests\": 12\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"app.depth\": -3\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"app.cost\": {\"count\": 3, \"sum\": 105, "
            "\"bounds\": [1, 10], \"buckets\": [1, 1, 1]}\n"
            "  }\n"
            "}\n");
}

TEST(ExporterTest, EmptySnapshotSerializesToEmptySections) {
  const MetricsSnapshot empty;
  EXPECT_EQ(to_text(empty), "");
  EXPECT_EQ(to_json(empty),
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
}

// --- TraceLog --------------------------------------------------------------

TEST(TraceTest, DisabledLogIsANoOp) {
  TraceLog log;
  EXPECT_FALSE(log.enabled());
  const std::size_t span = log.begin_span("ignored");
  EXPECT_EQ(span, TraceLog::kNoSpan);
  log.attr(span, "k", 1);
  log.end_span(span);
  EXPECT_EQ(log.span_count(), 0u);
  EXPECT_EQ(log.to_text(), "");
}

TEST(TraceTest, SpansStampTheVirtualClockNeverWallTime) {
  TraceLog log;
  log.set_enabled(true);
  const std::size_t outer = log.begin_span("outer");
  log.advance(10);
  const std::size_t inner = log.begin_span("inner");
  log.attr(inner, "items", 4);
  log.advance(5);
  log.end_span(inner);
  log.end_span(outer);

  EXPECT_EQ(log.now(), 15u);
  EXPECT_EQ(log.span_count(), 2u);
  EXPECT_EQ(log.to_text(),
            "span outer depth=0 start=0 end=15\n"
            "span inner depth=1 start=10 end=15 items=4\n");
}

TEST(TraceTest, ScopeIsRaiiAndClearResetsClockAndSpans) {
  TraceLog log;
  log.set_enabled(true);
  {
    TraceLog::Scope scope(log, "work");
    scope.attr("n", 2);
    log.advance(3);
  }
  EXPECT_EQ(log.to_text(), "span work depth=0 start=0 end=3 n=2\n");
  log.clear();
  EXPECT_EQ(log.now(), 0u);
  EXPECT_EQ(log.span_count(), 0u);
  EXPECT_EQ(log.to_text(), "");
}

TEST(TraceTest, IdenticalWorkloadYieldsIdenticalText) {
  const auto run = [] {
    TraceLog log;
    log.set_enabled(true);
    for (int i = 0; i < 3; ++i) {
      TraceLog::Scope scope(log, "round");
      scope.attr("i", static_cast<std::uint64_t>(i));
      log.advance(7);
    }
    return log.to_text();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace gplus::obs
