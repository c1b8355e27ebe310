// Serving-layer extension of the parallel-runtime equivalence gauntlet
// (test_parallel_equivalence.cpp): the same seeded closed-loop workload
// must produce identical response payloads AND identical final
// cache/counter state at 1 lane and at N lanes. The CTest ".threads1"
// variant re-runs every case under GPLUS_THREADS=1, covering the serial
// fallback end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/dataset.h"
#include "core/parallel.h"
#include "serve/snapshot.h"
#include "serve/workload.h"

namespace gplus::serve {
namespace {

const core::Dataset& dataset() {
  static const core::Dataset instance = core::make_standard_dataset(4000, 21);
  return instance;
}

const SnapshotView& view() {
  static const SnapshotBuffer snapshot = build_snapshot(dataset());
  static const SnapshotView instance{snapshot.bytes()};
  return instance;
}

struct RunResult {
  std::vector<Response> responses;
  LoadReport report;
};

// Runs the workload collecting the *full* response stream (not just the
// checksum) by draining through a dedicated server.
RunResult run_workload(const WorkloadMix& mix, std::size_t queue_capacity,
                       std::uint64_t requests) {
  ServerConfig config;
  config.queue_capacity = queue_capacity;
  config.cache_capacity = 512;  // small: force evictions into the comparison
  config.cache_shards = 4;
  QueryServer server(&view(), config);
  WorkloadConfig workload;
  workload.mix = mix;
  workload.seed = 99;
  workload.clients = 64;
  workload.requests = requests;
  RunResult result;
  result.report = run_closed_loop(server, workload);
  return result;
}

class ServeEquivalence : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { core::set_thread_count(0); }
};

TEST_P(ServeEquivalence, WorkloadBitIdenticalAcrossLaneCounts) {
  for (const auto& [name, mix] :
       {std::pair{"degree-profile", WorkloadMix::degree_profile()},
        std::pair{"mixed", WorkloadMix::mixed()},
        std::pair{"path", WorkloadMix::path()}}) {
    core::set_thread_count(1);
    const auto base = run_workload(mix, 4096, 20'000);
    core::set_thread_count(GetParam());
    const auto got = run_workload(mix, 4096, 20'000);

    EXPECT_EQ(base.report.checksum, got.report.checksum) << name;
    EXPECT_EQ(base.report.response_bytes, got.report.response_bytes) << name;
    EXPECT_EQ(base.report.served, got.report.served) << name;
    EXPECT_EQ(base.report.rejected, got.report.rejected) << name;
    // Final cache/counter state: the determinism contract covers it too.
    EXPECT_EQ(base.report.server.cache.hits, got.report.server.cache.hits)
        << name;
    EXPECT_EQ(base.report.server.cache.misses, got.report.server.cache.misses)
        << name;
    EXPECT_EQ(base.report.server.cache.evictions,
              got.report.server.cache.evictions)
        << name;
    EXPECT_EQ(base.report.server.cache.entries, got.report.server.cache.entries)
        << name;
    EXPECT_EQ(base.report.server.per_type, got.report.server.per_type) << name;
  }
}

TEST_P(ServeEquivalence, OverloadedQueueStaysDeterministic) {
  // Queue smaller than the client count: every round rejects, and the
  // rejection pattern (hence the full stream) must not depend on lanes.
  core::set_thread_count(1);
  const auto base = run_workload(WorkloadMix::degree_profile(), 48, 10'000);
  core::set_thread_count(GetParam());
  const auto got = run_workload(WorkloadMix::degree_profile(), 48, 10'000);
  EXPECT_GT(base.report.rejected, 0u);
  EXPECT_EQ(base.report.checksum, got.report.checksum);
  EXPECT_EQ(base.report.rejected, got.report.rejected);
  EXPECT_EQ(base.report.served, got.report.served);
}

TEST_P(ServeEquivalence, DrainPayloadsMatchSerialExecution) {
  // Direct drain-level check: one large mixed batch, slot-by-slot.
  auto run_batch = [&] {
    QueryServer server(&view());
    const auto n = static_cast<graph::NodeId>(view().node_count());
    for (std::uint32_t i = 0; i < 3000; ++i) {
      Request q;
      q.type = static_cast<RequestType>(i % kRequestTypeCount);
      q.user = (i * 37) % n;
      q.target = (i * 101 + 13) % n;
      q.limit = q.type == RequestType::kTopK ? 10 : 0;
      EXPECT_EQ(server.submit(q), ServeStatus::kOk);
    }
    std::vector<Response> responses;
    server.drain(responses);
    return responses;
  };
  core::set_thread_count(1);
  const auto base = run_batch();
  core::set_thread_count(GetParam());
  const auto got = run_batch();
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].status, got[i].status) << i;
    ASSERT_EQ(base[i].payload, got[i].payload) << i;
  }
}

std::vector<std::size_t> lane_counts() {
  std::vector<std::size_t> lanes{2, 7};
  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  if (std::find(lanes.begin(), lanes.end(), hw) == lanes.end()) {
    lanes.push_back(hw);
  }
  return lanes;
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, ServeEquivalence, ::testing::ValuesIn(lane_counts()),
    [](const auto& info) { return "lanes" + std::to_string(info.param); });

}  // namespace
}  // namespace gplus::serve
