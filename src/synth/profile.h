// User-profile model: the 17 public attributes of Table 2, the restricted
// fields (gender, relationship, "looking for") of §3.1, and the occupation
// codes of Table 5.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "geo/coords.h"
#include "geo/countries.h"

namespace gplus::synth {

/// The profile attributes of Table 2, in the paper's order. Name is public
/// by default and cannot be hidden.
enum class Attribute : std::uint8_t {
  kName = 0,
  kGender,
  kEducation,
  kPlacesLived,
  kEmployment,
  kPhrase,
  kOtherProfiles,
  kOccupation,
  kContributorTo,
  kIntroduction,
  kOtherNames,
  kRelationship,
  kBraggingRights,
  kRecommendedLinks,
  kLookingFor,
  kWorkContact,
  kHomeContact,
};

inline constexpr std::size_t kAttributeCount = 17;

/// Display name matching Table 2 rows.
std::string_view attribute_name(Attribute a) noexcept;

/// All attributes in table order.
std::array<Attribute, kAttributeCount> all_attributes() noexcept;

/// Gender: one of G+'s restricted-field options.
enum class Gender : std::uint8_t { kMale = 0, kFemale, kOther };
inline constexpr std::size_t kGenderCount = 3;
std::string_view gender_name(Gender g) noexcept;

/// Relationship status: the nine default options listed in Table 3.
enum class Relationship : std::uint8_t {
  kSingle = 0,
  kMarried,
  kInRelationship,
  kComplicated,
  kEngaged,
  kOpenRelationship,
  kWidowed,
  kDomesticPartnership,
  kCivilUnion,
};
inline constexpr std::size_t kRelationshipCount = 9;
std::string_view relationship_name(Relationship r) noexcept;

/// Occupation-job-title codes of Table 5.
enum class Occupation : std::uint8_t {
  kComedian = 0,       // Co
  kMusician,           // Mu
  kInformationTech,    // IT
  kBusinessman,        // Bu
  kModel,              // Mo
  kActor,              // Ac
  kSocialite,          // So
  kTvHost,             // TV
  kJournalist,         // Jo
  kBlogger,            // Bl
  kEconomist,          // Ec
  kArtist,             // Ar
  kPolitician,         // Po
  kPhotographer,       // Ph
  kWriter,             // Wr
};
inline constexpr std::size_t kOccupationCount = 15;

/// Two-letter code as printed in Table 5 ("Co", "Mu", ...).
std::string_view occupation_code(Occupation o) noexcept;
/// Full name ("Comedian", ...).
std::string_view occupation_name(Occupation o) noexcept;

/// Compact bitmask of publicly shared attributes.
class AttributeMask {
 public:
  constexpr AttributeMask() = default;

  constexpr void set(Attribute a) noexcept { bits_ |= bit(a); }
  constexpr void clear(Attribute a) noexcept { bits_ &= ~bit(a); }
  constexpr bool test(Attribute a) const noexcept {
    return (bits_ & bit(a)) != 0;
  }

  /// Number of shared attributes; `exclude` bits are not counted (Figure 2
  /// excludes Work/Home contact from the field tally).
  int count(std::uint32_t exclude_bits = 0) const noexcept;

  constexpr std::uint32_t bits() const noexcept { return bits_; }
  static constexpr std::uint32_t bit(Attribute a) noexcept {
    return std::uint32_t{1} << static_cast<unsigned>(a);
  }

  friend bool operator==(const AttributeMask&, const AttributeMask&) = default;

 private:
  std::uint32_t bits_ = 0;
};

/// One synthetic user profile. All demographic values are *latent* truths;
/// `shared` records what the user made public (which is all the crawler —
/// and the paper — can see).
struct Profile {
  Gender gender = Gender::kMale;
  Relationship relationship = Relationship::kSingle;
  Occupation occupation = Occupation::kInformationTech;
  geo::CountryId country = geo::kNoCountry;
  geo::LatLon home;
  float openness = 0.5F;    // latent disclosure propensity in [0,1]
  bool celebrity = false;   // public figure with boosted audience
  AttributeMask shared;     // publicly visible attributes

  /// True when a phone number (work or home contact) is public — the
  /// "tel-user" cohort of §3.2.
  bool is_tel_user() const noexcept {
    return shared.test(Attribute::kWorkContact) ||
           shared.test(Attribute::kHomeContact);
  }

  /// True when "places lived" is public, i.e. the user is geo-locatable.
  bool is_located() const noexcept {
    return shared.test(Attribute::kPlacesLived) && country != geo::kNoCountry;
  }
};

/// Synthesizes a display name for user `id` ("User 12345", or a celebrity
/// stage name like "US Star #3 (Musician)").
std::string display_name(std::uint32_t id, const Profile& profile);

}  // namespace gplus::synth
