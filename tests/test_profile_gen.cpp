#include "synth/profile_gen.h"

#include <gtest/gtest.h>

#include <vector>

namespace gplus::synth {
namespace {

// One shared batch of generated profiles for the statistical assertions.
class ProfileGenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    population_ = new PopulationModel();
    generator_ = new ProfileGenerator(ProfileGenConfig{}, *population_);
    profiles_ = new std::vector<Profile>();
    stats::Rng rng(77);
    profiles_->reserve(kUsers);
    for (std::size_t i = 0; i < kUsers; ++i) {
      const geo::CountryId c = population_->sample_country(rng);
      profiles_->push_back(generator_->generate(c, false, {0, 0}, rng));
    }
  }
  static void TearDownTestSuite() {
    delete profiles_;
    delete generator_;
    delete population_;
    profiles_ = nullptr;
    generator_ = nullptr;
    population_ = nullptr;
  }

  static double shared_fraction(Attribute a) {
    std::size_t n = 0;
    for (const auto& p : *profiles_) n += p.shared.test(a);
    return static_cast<double>(n) / static_cast<double>(profiles_->size());
  }

  static constexpr std::size_t kUsers = 120'000;
  static PopulationModel* population_;
  static ProfileGenerator* generator_;
  static std::vector<Profile>* profiles_;
};

PopulationModel* ProfileGenTest::population_ = nullptr;
ProfileGenerator* ProfileGenTest::generator_ = nullptr;
std::vector<Profile>* ProfileGenTest::profiles_ = nullptr;

TEST_F(ProfileGenTest, NameAlwaysShared) {
  EXPECT_DOUBLE_EQ(shared_fraction(Attribute::kName), 1.0);
}

TEST_F(ProfileGenTest, Table2MarginalsWithinTolerance) {
  // The openness tilt must preserve the global base rates (Table 2).
  struct Row {
    Attribute a;
    double expected;
    double tol;
  };
  const Row rows[] = {
      {Attribute::kGender, 0.9767, 0.02},
      {Attribute::kEducation, 0.2711, 0.03},
      {Attribute::kPlacesLived, 0.2675, 0.03},
      {Attribute::kEmployment, 0.2147, 0.03},
      {Attribute::kPhrase, 0.1479, 0.02},
      {Attribute::kOccupation, 0.1327, 0.02},
      {Attribute::kIntroduction, 0.0780, 0.015},
      {Attribute::kRelationship, 0.0431, 0.01},
      {Attribute::kLookingFor, 0.0274, 0.01},
  };
  for (const Row& row : rows) {
    EXPECT_NEAR(shared_fraction(row.a), row.expected, row.tol)
        << attribute_name(row.a);
  }
}

TEST_F(ProfileGenTest, TelUserRateNearPaperValue) {
  std::size_t tel = 0;
  for (const auto& p : *profiles_) tel += p.is_tel_user();
  const double rate = static_cast<double>(tel) / profiles_->size();
  // Paper: 0.26% of users share a phone number.
  EXPECT_NEAR(rate, 0.0026, 0.0015);
  EXPECT_GT(tel, 50u);  // enough tel-users for the cohort tests below
}

TEST_F(ProfileGenTest, GenderMarginalsMatchTable3) {
  std::array<std::size_t, kGenderCount> counts{};
  for (const auto& p : *profiles_) ++counts[static_cast<std::size_t>(p.gender)];
  const auto n = static_cast<double>(profiles_->size());
  EXPECT_NEAR(counts[0] / n, 0.6765, 0.01);
  EXPECT_NEAR(counts[1] / n, 0.3146, 0.01);
  EXPECT_NEAR(counts[2] / n, 0.0089, 0.005);
}

TEST_F(ProfileGenTest, RelationshipMarginalsMatchTable3) {
  std::array<std::size_t, kRelationshipCount> counts{};
  for (const auto& p : *profiles_) {
    ++counts[static_cast<std::size_t>(p.relationship)];
  }
  const auto n = static_cast<double>(profiles_->size());
  EXPECT_NEAR(counts[static_cast<std::size_t>(Relationship::kSingle)] / n,
              0.4282, 0.01);
  EXPECT_NEAR(counts[static_cast<std::size_t>(Relationship::kMarried)] / n,
              0.2659, 0.01);
  EXPECT_NEAR(counts[static_cast<std::size_t>(Relationship::kCivilUnion)] / n,
              0.0039, 0.003);
}

TEST_F(ProfileGenTest, TelUsersSkewMale) {
  std::size_t tel_total = 0, tel_male = 0, male = 0;
  for (const auto& p : *profiles_) {
    male += p.gender == Gender::kMale;
    if (!p.is_tel_user()) continue;
    ++tel_total;
    tel_male += p.gender == Gender::kMale;
  }
  ASSERT_GT(tel_total, 0u);
  const double male_share = static_cast<double>(male) / profiles_->size();
  const double tel_male_share = static_cast<double>(tel_male) / tel_total;
  // Paper: 86% of tel-users are male vs 68% overall.
  EXPECT_GT(tel_male_share, male_share + 0.08);
}

TEST_F(ProfileGenTest, TelUsersSkewSingle) {
  std::size_t tel_total = 0, tel_single = 0;
  for (const auto& p : *profiles_) {
    if (!p.is_tel_user()) continue;
    ++tel_total;
    tel_single += p.relationship == Relationship::kSingle;
  }
  ASSERT_GT(tel_total, 0u);
  // Paper: 57% of tel-users single vs 43% overall.
  EXPECT_GT(static_cast<double>(tel_single) / tel_total, 0.47);
}

TEST_F(ProfileGenTest, TelUsersShareMoreFields) {
  const std::uint32_t exclude =
      AttributeMask::bit(Attribute::kWorkContact) |
      AttributeMask::bit(Attribute::kHomeContact);
  double tel_sum = 0.0, all_sum = 0.0;
  std::size_t tel_n = 0;
  for (const auto& p : *profiles_) {
    const int fields = p.shared.count(exclude);
    all_sum += fields;
    if (p.is_tel_user()) {
      tel_sum += fields;
      ++tel_n;
    }
  }
  ASSERT_GT(tel_n, 0u);
  const double tel_mean = tel_sum / static_cast<double>(tel_n);
  const double all_mean = all_sum / static_cast<double>(profiles_->size());
  // Fig 2: the tel-user CCDF dominates; the mean gap is large.
  EXPECT_GT(tel_mean, all_mean + 1.5);
}

TEST_F(ProfileGenTest, OpenCountriesShareMoreFields) {
  const auto id_country = *geo::find_country("ID");
  const auto de = *geo::find_country("DE");
  double id_sum = 0.0, de_sum = 0.0;
  std::size_t id_n = 0, de_n = 0;
  for (const auto& p : *profiles_) {
    if (p.country == id_country) {
      id_sum += p.shared.count();
      ++id_n;
    } else if (p.country == de) {
      de_sum += p.shared.count();
      ++de_n;
    }
  }
  ASSERT_GT(id_n, 100u);
  ASSERT_GT(de_n, 100u);
  // Fig 8: Indonesia shares more than Germany.
  EXPECT_GT(id_sum / id_n, de_sum / de_n + 0.3);
}

TEST_F(ProfileGenTest, IndiaOverrepresentedAmongTelUsers) {
  const auto in_country = *geo::find_country("IN");
  std::size_t in_users = 0, tel_users = 0, in_tel = 0;
  for (const auto& p : *profiles_) {
    const bool in = p.country == in_country;
    in_users += in;
    if (p.is_tel_user()) {
      ++tel_users;
      in_tel += in;
    }
  }
  ASSERT_GT(tel_users, 0u);
  const double in_share = static_cast<double>(in_users) / profiles_->size();
  const double in_tel_share = static_cast<double>(in_tel) / tel_users;
  // Paper Table 3: India doubles its share among tel-users.
  EXPECT_GT(in_tel_share, in_share * 1.3);
}

TEST(ProfileGenerator, CelebrityProfilesAreOpen) {
  const PopulationModel population;
  const ProfileGenerator generator(ProfileGenConfig{}, population);
  stats::Rng rng(5);
  const auto us = *geo::find_country("US");
  double celeb_fields = 0.0, ordinary_fields = 0.0;
  constexpr int kDraws = 3000;
  for (int i = 0; i < kDraws; ++i) {
    celeb_fields += generator.generate(us, true, {0, 0}, rng).shared.count();
    ordinary_fields +=
        generator.generate(us, false, {0, 0}, rng).shared.count();
  }
  EXPECT_GT(celeb_fields / kDraws, ordinary_fields / kDraws + 2.0);
}

TEST(ProfileGenerator, DeterministicForSameSeedStream) {
  const PopulationModel population;
  const ProfileGenerator generator(ProfileGenConfig{}, population);
  stats::Rng a(9), b(9);
  for (int i = 0; i < 100; ++i) {
    const auto pa = generator.generate(0, false, {1, 2}, a);
    const auto pb = generator.generate(0, false, {1, 2}, b);
    EXPECT_EQ(pa.shared, pb.shared);
    EXPECT_EQ(pa.gender, pb.gender);
    EXPECT_EQ(pa.relationship, pb.relationship);
    EXPECT_EQ(pa.occupation, pb.occupation);
  }
}

TEST(ProfileGenerator, TiltIsMonotoneInOpenness) {
  const PopulationModel population;
  const ProfileGenerator generator(ProfileGenConfig{}, population);
  EXPECT_LT(generator.disclosure_tilt(0.2), generator.disclosure_tilt(0.8));
  EXPECT_LT(generator.tel_tilt(0.2), generator.tel_tilt(0.8));
  // Tel tilt is sharper than the generic disclosure tilt.
  EXPECT_GT(generator.tel_tilt(0.9) / generator.tel_tilt(0.5),
            generator.disclosure_tilt(0.9) / generator.disclosure_tilt(0.5));
}

TEST(ProfileGenerator, BaseRateTablesMatchPaper) {
  EXPECT_DOUBLE_EQ(attribute_base_rate(Attribute::kName), 1.0);
  EXPECT_DOUBLE_EQ(attribute_base_rate(Attribute::kGender), 0.9767);
  EXPECT_DOUBLE_EQ(attribute_base_rate(Attribute::kPlacesLived), 0.2675);
  EXPECT_DOUBLE_EQ(gender_base_share(Gender::kMale), 0.6765);
  EXPECT_DOUBLE_EQ(relationship_base_share(Relationship::kSingle), 0.4282);
  EXPECT_GT(tel_gender_multiplier(Gender::kMale), 1.0);
  EXPECT_LT(tel_gender_multiplier(Gender::kFemale), 0.5);
  EXPECT_GT(tel_relationship_multiplier(Relationship::kOpenRelationship), 1.5);
  EXPECT_LT(tel_relationship_multiplier(Relationship::kInRelationship), 0.7);
}

}  // namespace
}  // namespace gplus::synth
