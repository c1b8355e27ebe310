// Figure 1: "Google+ home page of Larry Page" — rendered in ASCII.
//
// The paper's first figure is a screenshot of the most-followed profile.
// We render the synthetic counterpart through the *service* API — the
// same privacy-filtered view the crawler saw — for the top user and for a
// typical user, including the two public lists and their displayed
// totals.
#include "bench_common.h"

#include "core/analysis.h"
#include "core/table.h"
#include "service/service.h"

namespace {

using namespace gplus;

void render_profile(service::SocialService& svc, const core::Dataset& ds,
                    graph::NodeId id) {
  const auto page = svc.fetch_profile(id);
  const auto& profile = ds.profiles[id];
  const std::string name = synth::display_name(id, profile);

  std::cout << "+-------------------------------"
               "-------------------------------+\n";
  std::cout << "|  " << name << "\n";
  if (page.occupation) {
    std::cout << "|  " << synth::occupation_name(*page.occupation) << "\n";
  }
  if (page.country) {
    std::cout << "|  Lives in: " << geo::country(*page.country).name << "\n";
  }
  std::cout << "|\n";
  std::cout << "|  Have " << (name.size() > 18 ? "them" : name)
            << " in circles: " << core::fmt_count(page.have_in_circles_total)
            << " people\n";
  std::cout << "|  In their circles: "
            << core::fmt_count(page.in_their_circles_total) << " people\n";
  std::cout << "|\n";
  std::cout << "|  About (public fields):\n";
  for (auto a : synth::all_attributes()) {
    if (page.shared.test(a)) {
      std::cout << "|    * " << synth::attribute_name(a) << "\n";
    }
  }
  std::cout << "|  lists " << (page.lists_public ? "public" : "private")
            << "\n";
  std::cout << "+-------------------------------"
               "-------------------------------+\n";
}

}  // namespace

int main() {
  using namespace gplus;
  bench::banner("Figure 1", "profile home page of the most-followed user");

  const auto& ds = bench::dataset();
  service::SocialService svc(&ds.graph(), ds.profiles, {});

  const auto top = core::top_users(ds, 1)[0];
  std::cout << "--- The network's 'Larry Page' (top in-degree) ---\n";
  render_profile(svc, ds, top.node);

  std::cout << "\n";

  // A typical user for contrast.
  graph::NodeId typical = 0;
  for (graph::NodeId u = 0; u < ds.user_count(); ++u) {
    if (!ds.profiles[u].celebrity && ds.graph().in_degree(u) >= 5 &&
        ds.graph().in_degree(u) <= 15) {
      typical = u;
      break;
    }
  }
  std::cout << "--- A typical user, for contrast ---\n";
  render_profile(svc, ds, typical);
  std::cout << "\n(paper: Larry Page was listed in 3.7M circles by Aug 2012,\n"
               " 'while the majority are listed in no more than 10' — the\n"
               " same four orders of magnitude separate these two pages)\n";
  return 0;
}
