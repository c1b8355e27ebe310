#include <gtest/gtest.h>

#include <set>

#include "geo/coords.h"
#include "geo/countries.h"
#include "geo/world.h"
#include "stats/descriptive.h"

namespace gplus::geo {
namespace {

TEST(Haversine, ZeroForIdenticalPoints) {
  const LatLon p{40.0, -74.0};
  EXPECT_DOUBLE_EQ(haversine_miles(p, p), 0.0);
}

TEST(Haversine, KnownCityDistances) {
  const LatLon nyc{40.71, -74.01};
  const LatLon la{34.05, -118.24};
  // Great-circle NYC-LA is ~2,445 statute miles.
  EXPECT_NEAR(haversine_miles(nyc, la), 2445.0, 30.0);

  const LatLon london{51.51, -0.13};
  // NYC-London ~3,460 miles.
  EXPECT_NEAR(haversine_miles(nyc, london), 3460.0, 40.0);
}

TEST(Haversine, Symmetric) {
  const LatLon a{12.97, 77.59};
  const LatLon b{-23.55, -46.63};
  EXPECT_DOUBLE_EQ(haversine_miles(a, b), haversine_miles(b, a));
}

TEST(Haversine, AntipodalIsHalfCircumference) {
  const LatLon a{0.0, 0.0};
  const LatLon b{0.0, 180.0};
  EXPECT_NEAR(haversine_miles(a, b), 3.14159265 * kEarthRadiusMiles, 1.0);
}

TEST(Haversine, TriangleInequalityHolds) {
  const LatLon a{40.71, -74.01};
  const LatLon b{51.51, -0.13};
  const LatLon c{35.68, 139.69};
  EXPECT_LE(haversine_miles(a, c),
            haversine_miles(a, b) + haversine_miles(b, c) + 1e-9);
}

TEST(Coords, Validation) {
  EXPECT_TRUE(is_valid({0.0, 0.0}));
  EXPECT_TRUE(is_valid({-90.0, 180.0}));
  EXPECT_FALSE(is_valid({91.0, 0.0}));
  EXPECT_FALSE(is_valid({0.0, -181.0}));
}

TEST(Countries, TableCoversPaperFigures) {
  // Every country named in Figures 6, 7, and 10 must be present.
  for (const char* code : {"US", "IN", "BR", "GB", "CA", "DE", "ID", "MX",
                           "IT", "ES", "RU", "FR", "VN", "CN", "TH", "JP",
                           "TW", "AR", "AU", "IR"}) {
    EXPECT_TRUE(find_country(code).has_value()) << code;
  }
  EXPECT_FALSE(find_country("XX").has_value());
  EXPECT_FALSE(find_country("").has_value());
}

TEST(Countries, DataSanity) {
  std::set<std::string_view> codes;
  for (const Country& c : countries()) {
    EXPECT_EQ(c.code.size(), 2u);
    EXPECT_TRUE(codes.insert(c.code).second) << "duplicate " << c.code;
    EXPECT_GT(c.population, 1'000'000u);
    EXPECT_GT(c.internet_penetration, 0.0);
    EXPECT_LE(c.internet_penetration, 1.0);
    EXPECT_GT(c.gdp_per_capita_ppp, 1000.0);
    EXPECT_FALSE(c.cities.empty());
    for (const City& city : c.cities) {
      EXPECT_TRUE(is_valid(city.location)) << c.code << " " << city.name;
      EXPECT_GT(city.weight, 0.0);
    }
  }
}

TEST(Countries, KnownRelativeFacts) {
  const auto& us = country(*find_country("US"));
  const auto& in = country(*find_country("IN"));
  const auto& de = country(*find_country("DE"));
  EXPECT_GT(in.population, us.population);
  EXPECT_GT(us.gdp_per_capita_ppp, in.gdp_per_capita_ppp);
  EXPECT_GT(de.internet_penetration, in.internet_penetration);
  // The Fig 7b "linear" relation: richer countries are more connected.
  EXPECT_GT(us.internet_penetration, 0.7);
  EXPECT_LT(in.internet_penetration, 0.2);
}

TEST(Countries, PaperTop10OrderAndLookup) {
  const auto top = paper_top10();
  ASSERT_EQ(top.size(), 10u);
  EXPECT_EQ(country(top[0]).code, "US");
  EXPECT_EQ(country(top[1]).code, "IN");
  EXPECT_EQ(country(top[9]).code, "ES");
}

TEST(Countries, InvalidIdRejected) {
  EXPECT_THROW(country(country_count()), std::invalid_argument);
  EXPECT_THROW(country(kNoCountry), std::invalid_argument);
}

TEST(Countries, RegionNamesNonEmpty) {
  for (auto r : {Region::kNorthAmerica, Region::kLatinAmerica, Region::kEurope,
                 Region::kAsia, Region::kOceania, Region::kMiddleEast}) {
    EXPECT_FALSE(region_name(r).empty());
  }
}

TEST(World, SampledLocationsNearHomeCountry) {
  const World world(10.0);
  stats::Rng rng(1);
  const auto br = *find_country("BR");
  for (int i = 0; i < 200; ++i) {
    const LatLon p = world.sample_location(br, rng);
    ASSERT_TRUE(is_valid(p));
    // Within 300 miles of some Brazilian city.
    double best = 1e9;
    for (const City& city : country(br).cities) {
      best = std::min(best, haversine_miles(p, city.location));
    }
    EXPECT_LT(best, 300.0);
  }
}

TEST(World, JitterScalesWithConfig) {
  stats::Rng rng(2);
  const auto us = *find_country("US");
  auto mean_offset = [&](double jitter) {
    const World world(jitter);
    stats::RunningStats acc;
    for (int i = 0; i < 300; ++i) {
      const std::size_t city = world.sample_city(us, rng);
      const LatLon p = world.sample_location_in_city(us, city, rng);
      acc.add(haversine_miles(p, country(us).cities[city].location));
    }
    return acc.mean();
  };
  const double small = mean_offset(2.0);
  const double large = mean_offset(40.0);
  EXPECT_LT(small, 10.0);
  EXPECT_GT(large, 3.0 * small);
}

TEST(World, ZeroJitterPinsToCity) {
  const World world(0.0);
  stats::Rng rng(3);
  const auto jp = *find_country("JP");
  const std::size_t city = world.sample_city(jp, rng);
  const LatLon p = world.sample_location_in_city(jp, city, rng);
  EXPECT_NEAR(haversine_miles(p, country(jp).cities[city].location), 0.0, 1e-6);
}

TEST(World, CityWeightsRespected) {
  const World world;
  stats::Rng rng(4);
  const auto jp = *find_country("JP");  // Tokyo dominates
  std::size_t tokyo = 0;
  constexpr int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) tokyo += world.sample_city(jp, rng) == 0;
  const double share = static_cast<double>(tokyo) / kDraws;
  // Tokyo weight 35.7 of 69.7 total ≈ 0.51.
  EXPECT_NEAR(share, 0.51, 0.05);
}

TEST(World, CountryDistancesSane) {
  const World world;
  const auto us = *find_country("US");
  const auto ca = *find_country("CA");
  const auto au = *find_country("AU");
  EXPECT_DOUBLE_EQ(world.country_distance_miles(us, us), 0.0);
  EXPECT_LT(world.country_distance_miles(us, ca),
            world.country_distance_miles(us, au));
  EXPECT_DOUBLE_EQ(world.country_distance_miles(us, au),
                   world.country_distance_miles(au, us));
}

TEST(World, RejectsInvalidArguments) {
  EXPECT_THROW(World(-1.0), std::invalid_argument);
  const World world;
  stats::Rng rng(5);
  EXPECT_THROW(world.sample_location(kNoCountry, rng), std::invalid_argument);
  EXPECT_THROW(world.sample_location_in_city(0, 999, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace gplus::geo
