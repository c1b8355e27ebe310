// Checkpoint/resume coverage (§2 methodology: surviving machine
// restarts): snapshots round-trip exactly, corrupt files are rejected,
// and a crawl killed at any profile boundary resumes to the bit-identical
// graph of an uninterrupted, fault-free run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "crawler/checkpoint.h"
#include "crawler/crawler.h"
#include "graph/builder.h"
#include "service/service.h"

namespace gplus::crawler {
namespace {

using graph::GraphBuilder;
using graph::NodeId;

// Per-process scratch dir: the .threads1 ctest variant runs concurrently
// in its own process, so paths must not collide across processes.
std::filesystem::path scratch_dir() {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gplus_checkpoint_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir;
}

std::string scratch_file(const std::string& name) {
  return (scratch_dir() / name).string();
}

struct Fixture {
  graph::DiGraph graph;
  std::vector<synth::Profile> profiles;

  Fixture() {
    GraphBuilder b;
    for (NodeId u = 0; u < 300; ++u) {
      b.add_reciprocal_edge(u, (u + 1) % 300);
      b.add_reciprocal_edge(u, (u + 13) % 300);
      b.add_edge(u, 300);
    }
    graph = b.build();
    profiles.assign(graph.node_count(), synth::Profile{});
  }

  service::SocialService service(service::ServiceConfig config = {}) {
    return service::SocialService(&graph, profiles, config);
  }
};

service::FaultConfig modest_faults() {
  service::FaultConfig f;
  f.transient_rate = 0.10;
  f.rate_limit_rate = 0.05;
  f.truncation_rate = 0.05;
  f.slow_rate = 0.10;
  return f;
}

void expect_identical_crawl(const CrawlResult& a, const CrawlResult& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  EXPECT_EQ(a.original_id, b.original_id);
  EXPECT_EQ(a.crawled, b.crawled);
  ASSERT_EQ(a.graph.node_count(), b.graph.node_count());
  ASSERT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (NodeId u = 0; u < a.graph.node_count(); ++u) {
    const auto an = a.graph.out_neighbors(u);
    const auto bn = b.graph.out_neighbors(u);
    ASSERT_EQ(an.size(), bn.size()) << "node " << u;
    EXPECT_TRUE(std::equal(an.begin(), an.end(), bn.begin())) << "node " << u;
  }
}

TEST(Checkpoint, SaveLoadRoundTripsEveryField) {
  CrawlCheckpoint cp;
  cp.original_id = {5, 2, 9, 14};
  cp.crawled = {1, 1, 0, 0};
  cp.degraded = {0, 1, 0, 0};
  cp.queue_head = 2;
  cp.edges = {{0, 1}, {1, 2}, {3, 0}};
  cp.profiles_crawled = 2;
  cp.edges_collected = 3;
  cp.requests = 17;
  cp.hidden_list_users = 1;
  cp.capped_users = 1;
  cp.retry.attempts = 23;
  cp.retry.retries = 6;
  cp.retry.transient = 3;
  cp.retry.rate_limited = 2;
  cp.retry.truncated = 1;
  cp.retry.slow = 4;
  cp.retry.abandoned = 1;
  cp.retry.backoff_micros = 1'234'567;
  cp.elapsed_seconds = 98.25;

  const auto path = scratch_file("roundtrip.ckpt");
  save_checkpoint(cp, path);
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->original_id, cp.original_id);
  EXPECT_EQ(loaded->crawled, cp.crawled);
  EXPECT_EQ(loaded->degraded, cp.degraded);
  EXPECT_EQ(loaded->queue_head, cp.queue_head);
  EXPECT_EQ(loaded->edges, cp.edges);
  EXPECT_EQ(loaded->profiles_crawled, cp.profiles_crawled);
  EXPECT_EQ(loaded->edges_collected, cp.edges_collected);
  EXPECT_EQ(loaded->requests, cp.requests);
  EXPECT_EQ(loaded->hidden_list_users, cp.hidden_list_users);
  EXPECT_EQ(loaded->capped_users, cp.capped_users);
  EXPECT_EQ(loaded->retry.attempts, cp.retry.attempts);
  EXPECT_EQ(loaded->retry.retries, cp.retry.retries);
  EXPECT_EQ(loaded->retry.transient, cp.retry.transient);
  EXPECT_EQ(loaded->retry.rate_limited, cp.retry.rate_limited);
  EXPECT_EQ(loaded->retry.truncated, cp.retry.truncated);
  EXPECT_EQ(loaded->retry.slow, cp.retry.slow);
  EXPECT_EQ(loaded->retry.abandoned, cp.retry.abandoned);
  EXPECT_EQ(loaded->retry.backoff_micros, cp.retry.backoff_micros);
  EXPECT_DOUBLE_EQ(loaded->elapsed_seconds, cp.elapsed_seconds);
}

TEST(Checkpoint, MissingFileIsNotAnError) {
  EXPECT_FALSE(load_checkpoint(scratch_file("never_written.ckpt")).has_value());
}

TEST(Checkpoint, RejectsCorruptFiles) {
  const auto bad_magic = scratch_file("bad_magic.ckpt");
  {
    std::ofstream out(bad_magic, std::ios::binary);
    out << "NOTGPLUSDATA____________";
  }
  EXPECT_THROW(load_checkpoint(bad_magic), std::runtime_error);

  // Truncate a valid checkpoint mid-stream.
  CrawlCheckpoint cp;
  cp.original_id = {1, 2, 3};
  cp.crawled = {1, 0, 0};
  cp.degraded = {0, 0, 0};
  cp.queue_head = 1;
  const auto path = scratch_file("truncated.ckpt");
  save_checkpoint(cp, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);

  // Crafted files: the magic, then little-endian words and, for the
  // current format, the FNV-1a of the words' bytes as the trailing u64.
  const auto write_words = [](const std::string& file, const char* magic,
                              const std::vector<std::uint64_t>& words) {
    std::string body;
    const auto put = [&body](std::uint64_t w) {
      for (int i = 0; i < 8; ++i) {
        body.push_back(static_cast<char>(w >> (8 * i)));
      }
    };
    for (std::uint64_t w : words) put(w);
    if (std::string(magic) == "GPLUSCK3") {
      std::uint64_t hash = 14695981039346656037ULL;
      for (char c : body) {
        hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
      put(hash);
    }
    std::ofstream out(file, std::ios::binary);
    out.write(magic, 8);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  };
  // An empty frontier, no edges, five crawl counters, eight retry counters
  // and the elapsed seconds: the smallest well-formed body.
  const std::vector<std::uint64_t> empty_body(19, 0);
  const auto crafted = scratch_file("crafted.ckpt");
  write_words(crafted, "GPLUSCK3", empty_body);
  ASSERT_TRUE(load_checkpoint(crafted).has_value());

  // Counts that no file of this size can back must be rejected before
  // they size an allocation, even under a matching checksum.
  const auto huge_nodes = scratch_file("huge_nodes.ckpt");
  write_words(huge_nodes, "GPLUSCK3", {std::uint64_t{1} << 62});
  EXPECT_THROW(load_checkpoint(huge_nodes), std::runtime_error);
  // Zero nodes, two empty flag vectors, queue head 0, then 2^61 edges.
  const auto huge_edges = scratch_file("huge_edges.ckpt");
  write_words(huge_edges, "GPLUSCK3", {0, 0, 0, 0, std::uint64_t{1} << 61});
  EXPECT_THROW(load_checkpoint(huge_edges), std::runtime_error);
  // A checksummed body with a word after its last field.
  const auto trailing = scratch_file("trailing.ckpt");
  auto trailing_body = empty_body;
  trailing_body.push_back(7);
  write_words(trailing, "GPLUSCK3", trailing_body);
  EXPECT_THROW(load_checkpoint(trailing), std::runtime_error);

  // The retired versions are named, not reported as garbage.
  for (const char* retired : {"GPLUSCK1", "GPLUSCK2"}) {
    const auto old = scratch_file("retired.ckpt");
    write_words(old, retired, empty_body);
    try {
      load_checkpoint(old);
      ADD_FAILURE() << "a " << retired << " checkpoint loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(retired), std::string::npos)
          << e.what();
    }
  }

  // Every single-byte flip of a saved checkpoint is refused: the magic
  // stops matching, or the checksum over the rest does.
  CrawlCheckpoint small;
  small.original_id = {4, 1, 7};
  small.crawled = {1, 0, 0};
  small.degraded = {0, 1, 0};
  small.queue_head = 1;
  small.edges = {{0, 1}, {2, 0}};
  small.profiles_crawled = 1;
  small.edges_collected = 2;
  small.requests = 3;
  small.retry.attempts = 3;
  small.retry.backoff_micros = 250;
  small.elapsed_seconds = 1.5;
  const auto flipped = scratch_file("flipped.ckpt");
  save_checkpoint(small, flipped);
  std::string bytes;
  {
    std::ifstream in(flipped, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_TRUE(load_checkpoint(flipped).has_value());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    {
      std::ofstream out(flipped, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    EXPECT_THROW(load_checkpoint(flipped), std::runtime_error)
        << "byte " << i << " of " << bytes.size();
  }
}

TEST(Checkpoint, AtomicWriteLeavesNoTempFile) {
  CrawlCheckpoint cp;
  cp.original_id = {1};
  cp.crawled = {0};
  cp.degraded = {0};
  const auto path = scratch_file("atomic.ckpt");
  save_checkpoint(cp, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointResume, KilledCrawlResumesToBitIdenticalGraph) {
  Fixture fx;
  // Reference: one uninterrupted fault-free crawl, no checkpointing.
  auto reference_svc = fx.service();
  CrawlConfig reference_config;
  reference_config.seed_node = 0;
  const auto reference = run_bfs_crawl(reference_svc, reference_config);

  // "Kill" the crawl by budget after 60 profiles, checkpointing; then
  // resume from the file with the budget lifted — under faults both times.
  service::ServiceConfig faulty;
  faulty.faults = modest_faults();
  const auto path = scratch_file("kill_resume.ckpt");
  std::filesystem::remove(path);

  CrawlConfig config;
  config.seed_node = 0;
  config.checkpoint.path = path;
  config.max_profiles = 60;
  auto first_svc = fx.service(faulty);
  const auto first = run_bfs_crawl(first_svc, config);
  EXPECT_EQ(first.stats.profiles_crawled, 60u);
  EXPECT_TRUE(std::filesystem::exists(path));

  config.max_profiles = 0;
  auto second_svc = fx.service(faulty);
  const auto resumed = run_bfs_crawl(second_svc, config);
  EXPECT_EQ(resumed.stats.resumed_profiles, 60u);
  EXPECT_EQ(resumed.stats.profiles_crawled, reference.stats.profiles_crawled);
  expect_identical_crawl(reference, resumed);
  // Cumulative counters survive the restart.
  EXPECT_GT(resumed.stats.requests, first.stats.requests);
}

TEST(CheckpointResume, ResumeAfterEveryKillPointMatches) {
  Fixture fx;
  auto reference_svc = fx.service();
  CrawlConfig reference_config;
  reference_config.seed_node = 7;
  const auto reference = run_bfs_crawl(reference_svc, reference_config);

  service::ServiceConfig faulty;
  faulty.faults = modest_faults();
  for (std::size_t kill_at : {1u, 13u, 150u, 299u}) {
    const auto path = scratch_file("kill_at.ckpt");
    std::filesystem::remove(path);
    CrawlConfig config;
    config.seed_node = 7;
    config.checkpoint.path = path;
    config.max_profiles = kill_at;
    auto first_svc = fx.service(faulty);
    run_bfs_crawl(first_svc, config);

    config.max_profiles = 0;
    auto second_svc = fx.service(faulty);
    const auto resumed = run_bfs_crawl(second_svc, config);
    expect_identical_crawl(reference, resumed);
  }
}

TEST(CheckpointResume, PeriodicCheckpointsAreWritten) {
  Fixture fx;
  auto svc = fx.service();
  const auto path = scratch_file("periodic.ckpt");
  std::filesystem::remove(path);
  CrawlConfig config;
  config.seed_node = 0;
  config.checkpoint.path = path;
  config.checkpoint.every_profiles = 50;
  const auto crawl = run_bfs_crawl(svc, config);
  // 301 profiles / every 50 = 6 periodic snapshots + the final one.
  EXPECT_EQ(crawl.stats.checkpoints_written, 7u);
  const auto cp = load_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->profiles_crawled, crawl.stats.profiles_crawled);
  EXPECT_EQ(cp->queue_head, cp->original_id.size());
}

TEST(CheckpointResume, ResumeOfFinishedCrawlIsANoOp) {
  Fixture fx;
  service::ServiceConfig faulty;
  faulty.faults = modest_faults();
  for (const auto& sconfig : {service::ServiceConfig{}, faulty}) {
    const auto path = scratch_file("finished.ckpt");
    std::filesystem::remove(path);
    CrawlConfig config;
    config.seed_node = 0;
    config.checkpoint.path = path;
    auto svc = fx.service(sconfig);
    const auto first = run_bfs_crawl(svc, config);

    auto again_svc = fx.service(sconfig);
    const auto again = run_bfs_crawl(again_svc, config);
    EXPECT_EQ(again.stats.resumed_profiles, first.stats.profiles_crawled);
    // No frontier left: the resumed run issues zero requests and so takes
    // no simulated time, however much the first run spent backing off.
    EXPECT_EQ(again_svc.request_count(), 0u);
    EXPECT_EQ(again.stats.simulated_hours, 0.0);
    expect_identical_crawl(first, again);
  }
}

TEST(CheckpointResume, DisabledResumeStartsFresh) {
  Fixture fx;
  const auto path = scratch_file("no_resume.ckpt");
  std::filesystem::remove(path);
  CrawlConfig config;
  config.seed_node = 0;
  config.max_profiles = 10;
  config.checkpoint.path = path;
  auto svc = fx.service();
  run_bfs_crawl(svc, config);

  config.checkpoint.resume = false;
  auto fresh_svc = fx.service();
  const auto fresh = run_bfs_crawl(fresh_svc, config);
  EXPECT_EQ(fresh.stats.resumed_profiles, 0u);
  EXPECT_EQ(fresh.stats.profiles_crawled, 10u);
}

TEST(CheckpointResume, CheckpointFromDifferentServiceIsRejected) {
  Fixture fx;
  CrawlCheckpoint cp;
  cp.original_id = {9'999};  // out of this universe
  cp.crawled = {0};
  cp.degraded = {0};
  const auto path = scratch_file("alien.ckpt");
  save_checkpoint(cp, path);
  CrawlConfig config;
  config.seed_node = 0;
  config.checkpoint.path = path;
  auto svc = fx.service();
  EXPECT_THROW(run_bfs_crawl(svc, config), std::runtime_error);
}

TEST(CheckpointResume, CountsInconsistentWithFrontierAreRejected) {
  // Every expansion bumps the queue head and the profile count together
  // and counts its user as hidden-list or capped at most once; a
  // checkpoint breaking either rule is rejected, not resumed into a
  // wrapped boundary count.
  Fixture fx;
  const auto path = scratch_file("inconsistent.ckpt");
  CrawlConfig config;
  config.seed_node = 0;
  config.checkpoint.path = path;
  const auto expect_rejected = [&](const CrawlCheckpoint& cp) {
    save_checkpoint(cp, path);
    auto svc = fx.service();
    try {
      run_bfs_crawl(svc, config);
      ADD_FAILURE() << "resumed an inconsistent checkpoint";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "checkpoint: inconsistent with this service");
    }
  };
  CrawlCheckpoint cp;
  cp.original_id = {0};
  cp.crawled = {0};
  cp.degraded = {0};
  cp.queue_head = 0;
  cp.profiles_crawled = 5;
  expect_rejected(cp);

  cp.crawled = {1};
  cp.queue_head = 1;
  cp.profiles_crawled = 1;
  cp.hidden_list_users = 1;
  cp.capped_users = 1;
  expect_rejected(cp);

  // An edge endpoint past the saved frontier would size the collected
  // graph beyond it, even when the budget allows no further expansion.
  cp.original_id = {0, 1};
  cp.crawled = {1, 0};
  cp.degraded = {0, 0};
  cp.hidden_list_users = 0;
  cp.capped_users = 0;
  cp.edges = {{0, 1}, {0, 7}};
  config.max_profiles = 1;
  expect_rejected(cp);
}

TEST(CheckpointResume, KilledFleetResumesToBitIdenticalGraph) {
  Fixture fx;
  auto reference_svc = fx.service();
  CrawlConfig reference_config;
  reference_config.seed_node = 0;
  const auto reference = run_bfs_crawl(reference_svc, reference_config);

  service::ServiceConfig faulty;
  faulty.faults = modest_faults();
  const auto path = scratch_file("fleet_resume.ckpt");
  std::filesystem::remove(path);

  CrawlConfig config;
  config.seed_node = 0;
  config.checkpoint.path = path;
  config.max_profiles = 80;
  auto first_svc = fx.service(faulty);
  const auto first = run_bfs_crawl(first_svc, config);
  EXPECT_EQ(first.stats.profiles_crawled, 80u);
  const auto killed = load_checkpoint(path);
  ASSERT_TRUE(killed.has_value());
  const double clock_start = killed->elapsed_seconds;

  config.max_profiles = 0;
  auto second_svc = fx.service(faulty);
  const auto resumed = run_bfs_crawl(second_svc, config);
  expect_identical_crawl(reference, resumed);
  EXPECT_EQ(resumed.stats.resumed_profiles, 80u);
  // The resumed clock starts where the killed fleet stopped.
  EXPECT_GT(resumed.makespan_days, first.makespan_days);
  // Utilization is this run's busy time over this run's machine time.
  double busy = 0.0;
  for (const auto& m : resumed.machines) busy += m.busy_seconds;
  const double run_seconds = resumed.makespan_days * 86'400.0 - clock_start;
  EXPECT_DOUBLE_EQ(resumed.mean_utilization,
                   busy / (run_seconds * static_cast<double>(config.machines)));
}

}  // namespace
}  // namespace gplus::crawler
