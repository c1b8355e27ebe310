#include "core/export.h"

#include <gtest/gtest.h>

#include <sstream>

namespace gplus::core {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new Dataset(make_standard_dataset(2'000, 3));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static Dataset* ds_;
};

Dataset* ExportTest::ds_ = nullptr;

TEST_F(ExportTest, GraphmlIsWellFormedEnough) {
  std::ostringstream out;
  write_graphml(*ds_, out);
  const std::string xml = out.str();
  EXPECT_NE(xml.find("<?xml"), std::string::npos);
  EXPECT_NE(xml.find("<graphml"), std::string::npos);
  EXPECT_NE(xml.find("edgedefault=\"directed\""), std::string::npos);
  EXPECT_NE(xml.find("</graphml>"), std::string::npos);
  // Node and edge counts match the dataset.
  std::size_t nodes = 0, edges = 0, pos = 0;
  while ((pos = xml.find("<node ", pos)) != std::string::npos) {
    ++nodes;
    ++pos;
  }
  pos = 0;
  while ((pos = xml.find("<edge ", pos)) != std::string::npos) {
    ++edges;
    ++pos;
  }
  EXPECT_EQ(nodes, ds_->user_count());
  EXPECT_EQ(edges, ds_->graph().edge_count());
}

TEST_F(ExportTest, PublicViewHidesUndisclosedFacts) {
  std::ostringstream public_out, latent_out;
  ExportOptions public_opts;
  public_opts.public_view = true;
  ExportOptions latent_opts;
  latent_opts.public_view = false;
  write_nodes_csv(*ds_, public_out, public_opts);
  write_nodes_csv(*ds_, latent_out, latent_opts);

  auto count_nonempty_country = [](const std::string& csv) {
    std::istringstream in(csv);
    std::string line;
    std::getline(in, line);  // header
    std::size_t filled = 0;
    while (std::getline(in, line)) {
      const auto first_comma = line.find(',');
      const auto second_comma = line.find(',', first_comma + 1);
      filled += second_comma > first_comma + 1;
    }
    return filled;
  };
  const auto public_filled = count_nonempty_country(public_out.str());
  const auto latent_filled = count_nonempty_country(latent_out.str());
  // Everyone has a latent country; only ~27% share it publicly.
  EXPECT_EQ(latent_filled, ds_->user_count());
  EXPECT_LT(public_filled, ds_->user_count() / 2);
  EXPECT_GT(public_filled, ds_->user_count() / 10);
}

TEST_F(ExportTest, EdgesCsvMatchesGraph) {
  std::ostringstream out;
  write_edges_csv(*ds_, out);
  std::istringstream in(out.str());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "source,target");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, ds_->graph().edge_count());
}

TEST_F(ExportTest, OptionsDropColumns) {
  std::ostringstream out;
  ExportOptions options;
  options.include_country = false;
  options.include_coordinates = false;
  write_nodes_csv(*ds_, out, options);
  std::istringstream in(out.str());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "id,occupation,celebrity");
}

TEST_F(ExportTest, FileSavers) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto graphml = dir / "gplus_test.graphml";
  const auto nodes = dir / "gplus_test_nodes.csv";
  const auto edges = dir / "gplus_test_edges.csv";
  save_graphml(*ds_, graphml);
  save_csv(*ds_, nodes, edges);
  EXPECT_GT(std::filesystem::file_size(graphml), 1000u);
  EXPECT_GT(std::filesystem::file_size(nodes), 100u);
  EXPECT_GT(std::filesystem::file_size(edges), 100u);
  std::filesystem::remove(graphml);
  std::filesystem::remove(nodes);
  std::filesystem::remove(edges);
  EXPECT_THROW(save_graphml(*ds_, "/no/such/dir/x.graphml"),
               std::runtime_error);
}

}  // namespace
}  // namespace gplus::core
