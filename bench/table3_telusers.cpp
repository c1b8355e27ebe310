// Table 3: Information shared by all users vs tel-users.
//
// Tel-users publish a phone number (work or home contact). The paper finds
// them male-skewed, single-skewed, and strongly over-represented in India.
#include "bench_common.h"

#include "core/analysis.h"
#include "core/table.h"

int main() {
  using namespace gplus;
  bench::banner("Table 3", "information shared by all users and tel-users");

  const auto& ds = bench::dataset();
  const auto all = core::cohort_breakdown(ds, false);
  const auto tel = core::cohort_breakdown(ds, true);

  core::TextTable table(
      {"", "All users", "Tel-users", "Paper (all)", "Paper (tel)"});
  table.add_row({"Total", core::fmt_count(all.total),
                 core::fmt_count(tel.total), "27,556,390", "72,736"});

  table.add_row({"Gender (N)", core::fmt_count(all.gender_n),
                 core::fmt_count(tel.gender_n), "26,914,758", "71,267"});
  const char* paper_gender_all[] = {"67.65%", "31.46%", "0.89%"};
  const char* paper_gender_tel[] = {"85.99%", "11.26%", "2.75%"};
  for (std::size_t g = 0; g < synth::kGenderCount; ++g) {
    table.add_row(
        {"  " +
             std::string(synth::gender_name(static_cast<synth::Gender>(g))),
         core::fmt_percent(all.gender_share[g]),
         core::fmt_percent(tel.gender_share[g]), paper_gender_all[g],
         paper_gender_tel[g]});
  }

  table.add_row({"Relationship (N)", core::fmt_count(all.relationship_n),
                 core::fmt_count(tel.relationship_n), "1,186,903", "29,068"});
  const char* paper_rel_all[] = {"42.82%", "26.59%", "19.80%", "3.16%", "4.39%",
                                 "1.26%",  "0.50%",  "1.08%",  "0.39%"};
  const char* paper_rel_tel[] = {"57.24%", "21.03%", "10.23%", "3.98%", "2.98%",
                                 "2.77%",  "0.58%",  "0.77%",  "0.41%"};
  for (std::size_t r = 0; r < synth::kRelationshipCount; ++r) {
    table.add_row(
        {"  " + std::string(synth::relationship_name(
                    static_cast<synth::Relationship>(r))),
         core::fmt_percent(all.relationship_share[r]),
         core::fmt_percent(tel.relationship_share[r]), paper_rel_all[r],
         paper_rel_tel[r]});
  }

  table.add_row({"Location (N)", core::fmt_count(all.location_n),
                 core::fmt_count(tel.location_n), "6,621,644", "45,676"});
  const char* loc_names[] = {"United States", "India", "Brazil",
                             "United Kingdom", "Canada", "Other"};
  const char* paper_loc_all[] = {"31.38%", "16.71%", "5.76%",
                                 "3.35%",  "2.30%",  "40.50%"};
  const char* paper_loc_tel[] = {"8.92%", "31.90%", "4.72%",
                                 "2.19%", "1.52%",  "50.77%"};
  for (std::size_t i = 0; i < 6; ++i) {
    table.add_row({"  " + std::string(loc_names[i]),
                   core::fmt_percent(all.location_share[i]),
                   core::fmt_percent(tel.location_share[i]), paper_loc_all[i],
                   paper_loc_tel[i]});
  }
  std::cout << table.str();
  return 0;
}
