#include "core/report.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/reference.h"
#include "core/table.h"

namespace gplus::core {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(make_standard_dataset(8'000, 37));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static std::string render(const ReportOptions& options) {
    std::ostringstream out;
    write_report(*ds_, out, options);
    return out.str();
  }
  static Dataset* ds_;
};

Dataset* ReportTest::ds_ = nullptr;

TEST_F(ReportTest, ContainsEverySection) {
  ReportOptions options;
  options.path_sources = 30;
  const auto text = render(options);
  EXPECT_NE(text.find("# Google+ reproduction report"), std::string::npos);
  EXPECT_NE(text.find("## Structure"), std::string::npos);
  EXPECT_NE(text.find("## Profiles"), std::string::npos);
  EXPECT_NE(text.find("## Geography"), std::string::npos);
  EXPECT_NE(text.find("## Top users"), std::string::npos);
  // Key paper anchors rendered.
  EXPECT_NE(text.find("16.4"), std::string::npos);   // paper mean degree
  EXPECT_NE(text.find("0.26%"), std::string::npos);  // paper tel-user rate
  EXPECT_NE(text.find("Places lived"), std::string::npos);
}

// Every Paper cell of the structure table is the formatted core
// constant, not a hand-typed copy of it.
TEST_F(ReportTest, StructurePaperColumnReadsTheConstants) {
  ReportOptions options;
  options.path_sources = 10;
  options.include_geography = false;
  const auto text = render(options);
  const auto& paper = google_plus_reference();
  const auto& constants = paper_constants();
  const std::pair<std::string, std::string> expected[] = {
      {"Mean degree", fmt_double(*paper.mean_in_degree, 1)},
      {"Reciprocity", fmt_percent(paper.reciprocity, 0)},
      {"Mean path length", fmt_double(paper.path_length, 1)},
      {"Diameter (lower bound)", std::to_string(paper.diameter)},
      {"Giant SCC", fmt_percent(constants.giant_scc_fraction(), 0)},
      {"In-degree alpha", fmt_double(constants.in_degree_alpha, 1)},
      {"Out-degree alpha", fmt_double(constants.out_degree_alpha, 1)},
  };
  for (const auto& [metric, cell] : expected) {
    const std::string prefix = "| " + metric + " | ";
    const auto at = text.find(prefix);
    ASSERT_NE(at, std::string::npos) << metric;
    const std::string row = text.substr(at, text.find('\n', at) - at);
    EXPECT_TRUE(row.ends_with(" | " + cell + " |")) << row;
  }
}

TEST_F(ReportTest, SectionsCanBeDisabled) {
  ReportOptions options;
  options.include_structure = false;
  options.include_geography = false;
  const auto text = render(options);
  EXPECT_EQ(text.find("## Structure"), std::string::npos);
  EXPECT_EQ(text.find("## Geography"), std::string::npos);
  EXPECT_NE(text.find("## Profiles"), std::string::npos);
  EXPECT_NE(text.find("## Top users"), std::string::npos);
}

TEST_F(ReportTest, MarkdownTablesAreWellFormed) {
  ReportOptions options;
  options.path_sources = 20;
  const auto text = render(options);
  std::istringstream in(text);
  std::string line;
  std::size_t table_rows = 0;
  while (std::getline(in, line)) {
    if (line.rfind("|", 0) != 0) continue;
    ++table_rows;
    EXPECT_EQ(line.back(), '|') << line;
  }
  EXPECT_GT(table_rows, 25u);  // attribute table alone has 17 rows
}

TEST_F(ReportTest, DeterministicForSameOptions) {
  ReportOptions options;
  options.path_sources = 20;
  EXPECT_EQ(render(options), render(options));
}

}  // namespace
}  // namespace gplus::core
