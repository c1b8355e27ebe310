#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "cli/args.h"
#include "cli/commands.h"
#include "core/reference.h"
#include "core/table.h"

namespace gplus::cli {
namespace {

TEST(ArgParser, DefaultsAndOverrides) {
  ArgParser parser("test", "test parser");
  parser.add_option("nodes", "100", "node count");
  parser.add_flag("verbose", "chatty output");

  ASSERT_FALSE(parser.parse({}).has_value());
  EXPECT_EQ(parser.get("nodes"), "100");
  EXPECT_FALSE(parser.get_flag("verbose"));

  ASSERT_FALSE(parser.parse({"--nodes", "250", "--verbose"}).has_value());
  EXPECT_EQ(parser.get_u64("nodes"), 250u);
  EXPECT_TRUE(parser.get_flag("verbose"));
}

TEST(ArgParser, EqualsSyntaxAndPositionals) {
  ArgParser parser("test", "test parser");
  parser.add_option("rate", "0.5", "a rate");
  ASSERT_FALSE(parser.parse({"input.txt", "--rate=0.25", "extra"}).has_value());
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 0.25);
  ASSERT_EQ(parser.positional().size(), 2u);
  EXPECT_EQ(parser.positional()[0], "input.txt");
  EXPECT_EQ(parser.positional()[1], "extra");
}

TEST(ArgParser, ReportsErrors) {
  ArgParser parser("test", "test parser");
  parser.add_option("nodes", "1", "n");
  parser.add_flag("fast", "f");
  EXPECT_TRUE(parser.parse({"--bogus"}).has_value());
  EXPECT_TRUE(parser.parse({"--nodes"}).has_value());     // missing value
  EXPECT_TRUE(parser.parse({"--fast=yes"}).has_value());  // flag with value
}

TEST(ArgParser, ReparseResetsState) {
  ArgParser parser("test", "test parser");
  parser.add_option("n", "5", "n");
  ASSERT_FALSE(parser.parse({"--n", "9"}).has_value());
  EXPECT_EQ(parser.get_u64("n"), 9u);
  ASSERT_FALSE(parser.parse({}).has_value());
  EXPECT_EQ(parser.get_u64("n"), 5u);
}

TEST(ArgParser, TypeValidation) {
  ArgParser parser("test", "test parser");
  parser.add_option("n", "abc", "n");
  ASSERT_FALSE(parser.parse({}).has_value());
  EXPECT_THROW(parser.get_u64("n"), std::invalid_argument);
  EXPECT_THROW(parser.get_double("n"), std::invalid_argument);
  EXPECT_THROW(parser.get("undeclared"), std::invalid_argument);
}

TEST(ArgParser, UsageMentionsAllOptions) {
  ArgParser parser("prog", "does things");
  parser.add_option("alpha", "1.0", "the exponent");
  parser.add_flag("quiet", "hush");
  const auto usage = parser.usage();
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("--quiet"), std::string::npos);
  EXPECT_NE(usage.find("the exponent"), std::string::npos);
  EXPECT_NE(usage.find("default: 1.0"), std::string::npos);
}

// End-to-end: generate -> analyze -> top -> crawl -> export, in-process.
// Each TEST may run in its own process (ctest discovery), so the fixture
// regenerates the dataset on demand rather than relying on test order.
class CliPipelineTest : public ::testing::Test {
 protected:
  static std::filesystem::path dataset_path() {
    return std::filesystem::temp_directory_path() / "gplus_cli_test.dataset";
  }
  void SetUp() override {
    if (std::filesystem::exists(dataset_path())) return;
    std::ostringstream out;
    ASSERT_EQ(run_command({"generate", "--nodes", "3000", "--seed", "7",
                           "--out", dataset_path().string()},
                          out),
              0)
        << out.str();
  }
};

TEST_F(CliPipelineTest, A_GenerateWritesADataset) {
  const auto fresh =
      std::filesystem::temp_directory_path() / "gplus_cli_test_fresh.dataset";
  std::ostringstream out;
  const int rc = run_command(
      {"generate", "--nodes", "3000", "--seed", "7", "--out", fresh.string()},
      out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_TRUE(std::filesystem::exists(fresh));
  EXPECT_NE(out.str().find("3,000 users"), std::string::npos);
  std::filesystem::remove(fresh);
}

TEST_F(CliPipelineTest, B_AnalyzePrintsSummary) {
  std::ostringstream out;
  const int rc = run_command({"analyze", "--in", dataset_path().string(),
                              "--path-sources", "40", "--attributes"},
                             out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("Mean degree"), std::string::npos);
  EXPECT_NE(out.str().find("Reciprocity"), std::string::npos);
  EXPECT_NE(out.str().find("Places lived"), std::string::npos);
}

// Every "Paper (Google+)" cell is the formatted core constant, not a
// hand-typed copy of it.
TEST_F(CliPipelineTest, B_AnalyzePaperColumnReadsTheConstants) {
  std::ostringstream out;
  ASSERT_EQ(run_command({"analyze", "--in", dataset_path().string(),
                         "--path-sources", "10"},
                        out),
            0)
      << out.str();
  const auto& paper = core::google_plus_reference();
  const auto& constants = core::paper_constants();
  const std::pair<std::string, std::string> expected[] = {
      {"Nodes", core::fmt_double(paper.nodes / 1e6, 1) + "M"},
      {"Edges", core::fmt_double(paper.edges / 1e6, 0) + "M"},
      {"Mean degree", core::fmt_double(*paper.mean_in_degree, 1)},
      {"Reciprocity", core::fmt_percent(paper.reciprocity, 0)},
      {"Mean path length", core::fmt_double(paper.path_length, 1)},
      {"Diameter (lb)", std::to_string(paper.diameter)},
      {"Giant SCC", core::fmt_percent(constants.giant_scc_fraction(), 0)},
      {"In-degree alpha", core::fmt_double(constants.in_degree_alpha, 1)},
      {"Out-degree alpha", core::fmt_double(constants.out_degree_alpha, 1)},
  };
  for (const auto& [metric, cell] : expected) {
    std::istringstream lines(out.str());
    std::string line;
    bool found = false;
    while (std::getline(lines, line)) {
      if (line.rfind(metric + "  ", 0) != 0) continue;
      found = true;
      EXPECT_EQ(line.substr(line.rfind(' ') + 1), cell) << line;
    }
    EXPECT_TRUE(found) << metric;
  }
}

TEST_F(CliPipelineTest, C_TopListsRankedUsers) {
  std::ostringstream out;
  const int rc =
      run_command({"top", "--in", dataset_path().string(), "--k", "5"}, out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("Rank"), std::string::npos);
  EXPECT_NE(out.str().find("5"), std::string::npos);
}

TEST_F(CliPipelineTest, D_CrawlReportsStats) {
  std::ostringstream out;
  const int rc = run_command({"crawl", "--in", dataset_path().string(),
                              "--coverage", "0.5", "--cap", "500"},
                             out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("Profiles crawled"), std::string::npos);
  EXPECT_NE(out.str().find("Degree-bias ratio"), std::string::npos);
}

TEST_F(CliPipelineTest, F_ExportGraphmlAndCsv) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto graphml = dir / "gplus_cli_test.graphml";
  std::ostringstream out1;
  EXPECT_EQ(run_command({"export", "--in", dataset_path().string(), "--out",
                         graphml.string(), "--format", "graphml"},
                        out1),
            0)
      << out1.str();
  EXPECT_TRUE(std::filesystem::exists(graphml));

  const auto nodes = dir / "gplus_cli_test_nodes.csv";
  std::ostringstream out2;
  EXPECT_EQ(run_command({"export", "--in", dataset_path().string(), "--out",
                         nodes.string(), "--format", "csv", "--latent"},
                        out2),
            0)
      << out2.str();
  EXPECT_TRUE(std::filesystem::exists(nodes));
  EXPECT_TRUE(std::filesystem::exists(nodes.string() + ".edges.csv"));

  std::filesystem::remove(graphml);
  std::filesystem::remove(nodes);
  std::filesystem::remove(nodes.string() + ".edges.csv");
}

TEST_F(CliPipelineTest, E_ExportWritesEdgeList) {
  const auto edges_path =
      std::filesystem::temp_directory_path() / "gplus_cli_test_edges.txt";
  std::ostringstream out;
  const int rc = run_command({"export", "--in", dataset_path().string(),
                              "--out", edges_path.string()},
                             out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_TRUE(std::filesystem::exists(edges_path));
  EXPECT_GT(std::filesystem::file_size(edges_path), 1000u);
  std::filesystem::remove(edges_path);
}

TEST_F(CliPipelineTest, G_ReportRendersMarkdown) {
  std::ostringstream out;
  const int rc = run_command({"report", "--in", dataset_path().string(),
                              "--path-sources", "30"},
                             out);
  EXPECT_EQ(rc, 0) << out.str();
  const auto text = out.str();
  EXPECT_NE(text.find("# Google+ reproduction report"), std::string::npos);
  EXPECT_NE(text.find("Mean degree"), std::string::npos);
  EXPECT_NE(text.find("Tel-users"), std::string::npos);
  EXPECT_NE(text.find("Country mixing"), std::string::npos);
  EXPECT_NE(text.find("IT share"), std::string::npos);
}

TEST_F(CliPipelineTest, H_SnapshotBuildAndInspect) {
  const auto snap =
      std::filesystem::temp_directory_path() / "gplus_cli_test.snap";
  std::ostringstream out;
  EXPECT_EQ(run_command({"snapshot", "--in", dataset_path().string(), "--out",
                         snap.string()},
                        out),
            0)
      << out.str();
  EXPECT_TRUE(std::filesystem::exists(snap));
  EXPECT_NE(out.str().find("3,000 users"), std::string::npos);

  std::ostringstream inspect;
  EXPECT_EQ(run_command({"snapshot", "--inspect", snap.string()}, inspect), 0)
      << inspect.str();
  EXPECT_NE(inspect.str().find("Nodes"), std::string::npos);
  EXPECT_NE(inspect.str().find("Reciprocity"), std::string::npos);
  EXPECT_NE(inspect.str().find("Located users"), std::string::npos);
  std::filesystem::remove(snap);

  // Format 1 is retired: asking for it fails with a message, writes nothing.
  std::ostringstream v1;
  EXPECT_NE(run_command({"snapshot", "--in", dataset_path().string(), "--out",
                         snap.string(), "--format-version", "1"},
                        v1),
            0);
  EXPECT_NE(v1.str().find("version 1"), std::string::npos) << v1.str();
  EXPECT_FALSE(std::filesystem::exists(snap));
}

TEST_F(CliPipelineTest, I_ServeBenchReportsThroughput) {
  std::ostringstream out;
  const int rc = run_command(
      {"serve-bench", "--in", dataset_path().string(), "--requests", "20000",
       "--clients", "16", "--mix", "mixed"},
      out);
  EXPECT_EQ(rc, 0) << out.str();
  EXPECT_NE(out.str().find("Throughput q/s"), std::string::npos);
  EXPECT_NE(out.str().find("p99 us"), std::string::npos);
  EXPECT_NE(out.str().find("Cache hit rate"), std::string::npos);
  EXPECT_NE(out.str().find("Response checksum"), std::string::npos);
}

TEST_F(CliPipelineTest, J_ServeBenchAcceptsSnapshotFile) {
  // --in sniffs the magic: a pre-built snapshot is served as-is and must
  // answer the same seeded workload with the same checksum as the dataset.
  const auto snap =
      std::filesystem::temp_directory_path() / "gplus_cli_serve.snap";
  std::ostringstream build;
  ASSERT_EQ(run_command({"snapshot", "--in", dataset_path().string(), "--out",
                         snap.string()},
                        build),
            0)
      << build.str();

  const std::vector<std::string> tail = {"--requests", "5000", "--clients",
                                         "8",          "--mix", "read"};
  auto bench = [&](const std::string& in) {
    std::vector<std::string> args = {"serve-bench", "--in", in};
    args.insert(args.end(), tail.begin(), tail.end());
    std::ostringstream out;
    EXPECT_EQ(run_command(args, out), 0) << out.str();
    const std::string text = out.str();
    const auto pos = text.find("Response checksum");
    EXPECT_NE(pos, std::string::npos);
    return text.substr(pos);
  };
  EXPECT_EQ(bench(snap.string()), bench(dataset_path().string()));
  std::filesystem::remove(snap);
}

TEST(Cli, SnapshotErrorPaths) {
  std::ostringstream missing;
  EXPECT_EQ(run_command({"snapshot", "--in", "/no/such/file.ds"}, missing), 1);
  EXPECT_NE(missing.str().find("error"), std::string::npos);

  std::ostringstream inspect_missing;
  EXPECT_EQ(run_command({"snapshot", "--inspect", "/no/such/file.snap"},
                        inspect_missing),
            1);
  EXPECT_NE(inspect_missing.str().find("snapshot"), std::string::npos);

  std::ostringstream bad_option;
  EXPECT_EQ(run_command({"snapshot", "--bogus"}, bad_option), 2);
  EXPECT_NE(bad_option.str().find("unknown option"), std::string::npos);
  EXPECT_NE(bad_option.str().find("--inspect"), std::string::npos);
}

TEST(Cli, ServeBenchErrorPaths) {
  std::ostringstream bad_mix;
  EXPECT_EQ(run_command({"serve-bench", "--mix", "bogus", "--nodes", "500",
                         "--requests", "10"},
                        bad_mix),
            1);
  EXPECT_NE(bad_mix.str().find("unknown workload mix"), std::string::npos);

  std::ostringstream bad_option;
  EXPECT_EQ(run_command({"serve-bench", "--frobnicate"}, bad_option), 2);
  EXPECT_NE(bad_option.str().find("unknown option"), std::string::npos);
  EXPECT_NE(bad_option.str().find("--clients"), std::string::npos);

  std::ostringstream missing;
  EXPECT_EQ(
      run_command({"serve-bench", "--in", "/no/such/file.ds"}, missing), 1);
  EXPECT_NE(missing.str().find("error"), std::string::npos);
}

TEST(Cli, MotifsCensusEvolveAndCalibrate) {
  // Census mode: all 16 class rows plus the derived summary, with the
  // sampled-estimator column when --samples is set.
  std::ostringstream census;
  EXPECT_EQ(run_command({"motifs", "--nodes", "400", "--samples", "2000"},
                        census),
            0);
  for (const char* name : {"003", "021C", "030T", "111D", "210", "300"}) {
    EXPECT_NE(census.str().find(name), std::string::npos) << name;
  }
  EXPECT_NE(census.str().find("Wedge closure"), std::string::npos);
  EXPECT_NE(census.str().find("Sampled closure"), std::string::npos);

  // The snapshot-backed census path prints the same summary block.
  std::ostringstream snap;
  EXPECT_EQ(run_command({"motifs", "--nodes", "400", "--via-snapshot"}, snap),
            0);
  EXPECT_NE(snap.str().find("Closed triads"), std::string::npos);

  std::ostringstream calibrate;
  EXPECT_EQ(run_command({"motifs", "--mode", "calibrate", "--nodes", "400",
                         "--rounds", "2", "--target-clustering", "0.3"},
                        calibrate),
            0);
  EXPECT_NE(calibrate.str().find("rounds accepted"), std::string::npos);

  std::ostringstream bad;
  EXPECT_EQ(run_command({"motifs", "--mode", "bogus"}, bad), 2);
  EXPECT_NE(bad.str().find("unknown mode"), std::string::npos);

  // The growth-simulation mode and its --days option are gone: the mode
  // is an unknown one whose message lists only the two that remain, and
  // --days is an unknown option.
  std::ostringstream evolve;
  EXPECT_EQ(run_command({"motifs", "--mode", "evolve"}, evolve), 2);
  EXPECT_NE(evolve.str().find("unknown mode: evolve"), std::string::npos);
  const auto expected = evolve.str().find("(expected ");
  ASSERT_NE(expected, std::string::npos) << evolve.str();
  EXPECT_EQ(evolve.str().substr(expected),
            "(expected census or calibrate)\n");

  std::ostringstream days;
  EXPECT_EQ(run_command({"motifs", "--days", "90,180"}, days), 2);
  EXPECT_NE(days.str().find("unknown option: --days"), std::string::npos);
  // The usage printed with it no longer offers the mode either.
  EXPECT_EQ(days.str().find("evolve"), std::string::npos);
}

TEST(Cli, CommandTableDrivesDispatchAndHelp) {
  // Every table row dispatches and appears in the generated usage text.
  std::ostringstream help;
  EXPECT_EQ(run_command({"help"}, help), 0);
  for (const auto& command : commands()) {
    EXPECT_NE(help.str().find(std::string(command.name)), std::string::npos)
        << command.name;
    EXPECT_NE(help.str().find(std::string(command.summary)), std::string::npos)
        << command.name;
  }
  EXPECT_NE(help.str().find("serve-bench"), std::string::npos);
  EXPECT_NE(help.str().find("snapshot"), std::string::npos);
}

TEST(Cli, UnknownCommandAndHelp) {
  std::ostringstream out;
  EXPECT_EQ(run_command({"frobnicate"}, out), 2);
  EXPECT_NE(out.str().find("unknown command"), std::string::npos);

  std::ostringstream help;
  EXPECT_EQ(run_command({"help"}, help), 0);
  EXPECT_NE(help.str().find("generate"), std::string::npos);

  std::ostringstream empty;
  EXPECT_EQ(run_command({}, empty), 2);
}

TEST(Cli, BadOptionsPrintUsageAndFail) {
  std::ostringstream out;
  EXPECT_EQ(run_command({"generate", "--bogus"}, out), 2);
  EXPECT_NE(out.str().find("unknown option"), std::string::npos);
  EXPECT_NE(out.str().find("--nodes"), std::string::npos);
}

TEST(Cli, MissingFileIsAnError) {
  std::ostringstream out;
  EXPECT_EQ(run_command({"analyze", "--in", "/no/such/file.ds"}, out), 1);
  EXPECT_NE(out.str().find("error"), std::string::npos);
}

TEST(Cli, BadPresetIsAnError) {
  std::ostringstream out;
  EXPECT_EQ(run_command({"generate", "--preset", "myspace"}, out), 1);
  EXPECT_NE(out.str().find("unknown preset"), std::string::npos);
}

}  // namespace
}  // namespace gplus::cli
