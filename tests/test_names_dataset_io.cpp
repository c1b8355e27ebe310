#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/dataset_io.h"
#include "synth/names.h"

namespace gplus {
namespace {

TEST(Names, DeterministicPerIdAndCountry) {
  const auto us = *geo::find_country("US");
  EXPECT_EQ(synth::synthesize_name(1, us), synth::synthesize_name(1, us));
  EXPECT_NE(synth::synthesize_name(1, us), synth::synthesize_name(2, us));
}

TEST(Names, CulturallyFlavoredPools) {
  const auto in_country = *geo::find_country("IN");
  const auto br = *geo::find_country("BR");
  // Different pools: the same id maps to different names.
  EXPECT_NE(synth::synthesize_name(5, in_country),
            synth::synthesize_name(5, br));
  // Every name is "First Last".
  for (std::uint32_t id = 0; id < 50; ++id) {
    const auto name = synth::synthesize_name(id, br);
    EXPECT_NE(name.find(' '), std::string::npos) << name;
    EXPECT_GT(name.size(), 4u);
  }
}

TEST(Names, NoCountryFallsBackToInternationalPool) {
  const auto name = synth::synthesize_name(9, geo::kNoCountry);
  EXPECT_FALSE(name.empty());
  EXPECT_NE(name.find(' '), std::string::npos);
}

TEST(Names, ReasonableVarietyInATop20) {
  const auto us = *geo::find_country("US");
  std::set<std::string> names;
  for (std::uint32_t id = 0; id < 20; ++id) {
    names.insert(synth::synthesize_name(id, us));
  }
  EXPECT_GE(names.size(), 15u);  // few collisions in a table-sized sample
}

class DatasetIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new core::Dataset(core::make_standard_dataset(5'000, 31));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static core::Dataset* ds_;
};

core::Dataset* DatasetIoTest::ds_ = nullptr;

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  core::write_dataset(*ds_, buf);
  const auto back = core::read_dataset(buf);

  ASSERT_EQ(back.user_count(), ds_->user_count());
  EXPECT_EQ(back.graph().edge_count(), ds_->graph().edge_count());
  for (graph::NodeId u = 0; u < ds_->user_count(); ++u) {
    const auto& a = ds_->profiles[u];
    const auto& b = back.profiles[u];
    ASSERT_EQ(a.shared, b.shared) << u;
    ASSERT_EQ(a.gender, b.gender) << u;
    ASSERT_EQ(a.relationship, b.relationship) << u;
    ASSERT_EQ(a.occupation, b.occupation) << u;
    ASSERT_EQ(a.country, b.country) << u;
    ASSERT_EQ(a.celebrity, b.celebrity) << u;
    ASSERT_NEAR(a.home.lat, b.home.lat, 1e-12) << u;
    ASSERT_NEAR(a.home.lon, b.home.lon, 1e-12) << u;
    ASSERT_NEAR(a.openness, b.openness, 1e-6) << u;
  }
  // Latent network vectors rebuilt from profiles.
  for (graph::NodeId u = 0; u < ds_->user_count(); ++u) {
    ASSERT_EQ(back.net.country[u], ds_->net.country[u]);
    ASSERT_EQ(back.net.celebrity[u], ds_->net.celebrity[u]);
  }
}

TEST_F(DatasetIoTest, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "gplus_test_dataset.bin";
  core::save_dataset(*ds_, path);
  const auto back = core::load_dataset(path);
  EXPECT_EQ(back.user_count(), ds_->user_count());
  EXPECT_EQ(back.graph().edge_count(), ds_->graph().edge_count());
  std::filesystem::remove(path);
}

TEST_F(DatasetIoTest, RejectsBadMagic) {
  std::stringstream buf("definitely not a dataset");
  EXPECT_THROW(core::read_dataset(buf), std::runtime_error);
}

TEST_F(DatasetIoTest, RejectsTruncation) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  core::write_dataset(*ds_, buf);
  std::string data = buf.str();
  data.resize(data.size() / 2);
  std::stringstream cut(data, std::ios::in | std::ios::binary);
  EXPECT_THROW(core::read_dataset(cut), std::runtime_error);
}

TEST_F(DatasetIoTest, MissingFileThrows) {
  EXPECT_THROW(core::load_dataset("/nonexistent/nowhere.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace gplus
