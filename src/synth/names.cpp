#include "synth/names.h"

#include <array>
#include <span>
#include <string_view>

#include "stats/rng.h"

namespace gplus::synth {

namespace {

struct NamePool {
  std::span<const std::string_view> first;
  std::span<const std::string_view> last;
};

// Compact per-language pools: enough variety that a top-20 table rarely
// repeats, flavored so country rows read plausibly.
constexpr std::array<std::string_view, 24> kFirstEn = {
    "James", "Mary", "Robert", "Linda", "Michael", "Sarah", "David", "Emma",
    "John", "Olivia", "Daniel", "Sophie", "Kevin", "Laura", "Brian", "Megan",
    "Jason", "Rachel", "Eric", "Hannah", "Scott", "Amy", "Ryan", "Claire"};
constexpr std::array<std::string_view, 16> kLastEn = {
    "Smith", "Johnson", "Brown", "Taylor", "Wilson", "Clark", "Walker",
    "Harris", "Lewis", "Young", "King", "Wright", "Scott", "Green", "Baker",
    "Adams"};

constexpr std::array<std::string_view, 16> kFirstHi = {
    "Aarav", "Priya", "Rohan", "Ananya", "Vikram", "Neha", "Arjun", "Kavya",
    "Rahul", "Pooja", "Amit", "Sneha", "Raj", "Divya", "Sanjay", "Meera"};
constexpr std::array<std::string_view, 12> kLastHi = {
    "Sharma", "Patel", "Singh", "Kumar", "Gupta", "Reddy", "Mehta", "Iyer",
    "Joshi", "Nair", "Chopra", "Verma"};

constexpr std::array<std::string_view, 16> kFirstPt = {
    "Joao", "Maria", "Pedro", "Ana", "Lucas", "Beatriz", "Gabriel", "Juliana",
    "Rafael", "Camila", "Felipe", "Larissa", "Thiago", "Fernanda", "Bruno",
    "Aline"};
constexpr std::array<std::string_view, 12> kLastPt = {
    "Silva", "Santos", "Oliveira", "Souza", "Costa", "Pereira", "Almeida",
    "Ferreira", "Rodrigues", "Lima", "Carvalho", "Ribeiro"};

constexpr std::array<std::string_view, 16> kFirstEs = {
    "Carlos", "Sofia", "Diego", "Valentina", "Javier", "Lucia", "Miguel",
    "Camila", "Alejandro", "Isabella", "Fernando", "Gabriela", "Ricardo",
    "Elena", "Pablo", "Carmen"};
constexpr std::array<std::string_view, 12> kLastEs = {
    "Garcia", "Martinez", "Lopez", "Gonzalez", "Hernandez", "Perez",
    "Sanchez", "Ramirez", "Torres", "Flores", "Vargas", "Castro"};

constexpr std::array<std::string_view, 12> kFirstDe = {
    "Lukas", "Anna", "Felix", "Lena", "Jonas", "Marie", "Maximilian",
    "Laura", "Paul", "Julia", "Tobias", "Katharina"};
constexpr std::array<std::string_view, 10> kLastDe = {
    "Mueller", "Schmidt", "Schneider", "Fischer", "Weber", "Meyer", "Wagner",
    "Becker", "Hoffmann", "Koch"};

constexpr std::array<std::string_view, 12> kFirstId = {
    "Budi", "Siti", "Agus", "Dewi", "Andi", "Rina", "Joko", "Putri", "Eko",
    "Fitri", "Dian", "Wati"};
constexpr std::array<std::string_view, 10> kLastId = {
    "Santoso", "Wijaya", "Susanto", "Hartono", "Setiawan", "Kusuma",
    "Halim", "Gunawan", "Hidayat", "Saputra"};

constexpr std::array<std::string_view, 12> kFirstIt = {
    "Luca", "Giulia", "Marco", "Chiara", "Alessandro", "Francesca", "Matteo",
    "Sara", "Andrea", "Elisa", "Davide", "Martina"};
constexpr std::array<std::string_view, 10> kLastIt = {
    "Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano", "Colombo",
    "Ricci", "Marino", "Greco"};

// International fallback: a blend used for languages without their own
// pool (and for users with no disclosed location).
constexpr std::array<std::string_view, 16> kFirstIntl = {
    "Alex", "Yuki", "Omar", "Ingrid", "Chen", "Fatima", "Ivan", "Amara",
    "Minh", "Zara", "Kofi", "Elif", "Niko", "Leila", "Tomas", "Mei"};
constexpr std::array<std::string_view, 12> kLastIntl = {
    "Tanaka", "Ali", "Ivanov", "Nguyen", "Kim", "Yilmaz", "Berg", "Okafor",
    "Novak", "Haddad", "Lindgren", "Moreau"};

NamePool pool_for_language(std::string_view language) {
  if (language == "en") return {kFirstEn, kLastEn};
  if (language == "hi") return {kFirstHi, kLastHi};
  if (language == "pt") return {kFirstPt, kLastPt};
  if (language == "es") return {kFirstEs, kLastEs};
  if (language == "de") return {kFirstDe, kLastDe};
  if (language == "id") return {kFirstId, kLastId};
  if (language == "it") return {kFirstIt, kLastIt};
  return {kFirstIntl, kLastIntl};
}

}  // namespace

std::string synthesize_name(std::uint32_t id, geo::CountryId country) {
  const NamePool pool =
      country == geo::kNoCountry
          ? pool_for_language("")
          : pool_for_language(geo::country(country).primary_language);
  // Two independent hash draws; deterministic in (id, country).
  std::uint64_t state = (static_cast<std::uint64_t>(country) << 32) ^
                        (id * 0x9E3779B97F4A7C15ULL);
  const auto h1 = stats::splitmix64_next(state);
  const auto h2 = stats::splitmix64_next(state);
  const auto& first = pool.first[h1 % pool.first.size()];
  const auto& last = pool.last[h2 % pool.last.size()];
  return std::string(first) + " " + std::string(last);
}

}  // namespace gplus::synth
