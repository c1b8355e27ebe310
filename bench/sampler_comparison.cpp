// Extension bench (§2.2 caveat): sampling-strategy comparison.
//
// The paper acknowledges BFS degree bias, citing the random-walk
// literature [18, 35], but could not quantify it without ground truth.
// This bench runs BFS, a simple random walk, Metropolis-Hastings RW (the
// unbiased sampler of [18]) and an oracle uniform sampler against the
// same simulated service, comparing each sample's mean in-degree to the
// truth at matched sample sizes and request budgets.
#include "bench_common.h"

#include "algo/degrees.h"
#include "core/table.h"
#include "crawler/samplers.h"
#include "service/service.h"
#include "stats/descriptive.h"

int main() {
  using namespace gplus;
  bench::banner("Sampler comparison (§2.2, [18],[35])",
                "BFS vs random walk vs MHRW vs uniform");

  const auto& ds = bench::dataset();
  double truth_mean = 0.0;
  for (auto d : algo::in_degrees(ds.graph())) {
    truth_mean += static_cast<double>(d);
  }
  truth_mean /= static_cast<double>(ds.user_count());
  std::cout << "ground-truth mean in-degree: "
            << core::fmt_double(truth_mean, 2) << "\n\n";

  // Whole-population degree sample for the KS comparison.
  std::vector<double> truth_degrees;
  truth_degrees.reserve(ds.user_count());
  for (auto d : algo::in_degrees(ds.graph())) {
    truth_degrees.push_back(static_cast<double>(d));
  }

  const std::size_t target = std::min<std::size_t>(ds.user_count() / 20, 5'000);
  core::TextTable table({"Sampler", "Users", "Mean in-degree", "Bias ratio",
                         "KS vs truth", "Requests", "Steps"});
  for (auto kind : {crawler::SamplerKind::kBfs,
                    crawler::SamplerKind::kRandomWalk,
                    crawler::SamplerKind::kMetropolisHastings,
                    crawler::SamplerKind::kUniformOracle}) {
    // Average over a few seeds to steady the walk estimators.
    double mean_sum = 0.0, ks_sum = 0.0;
    std::uint64_t requests = 0, steps = 0;
    std::size_t users = 0;
    constexpr int kRuns = 3;
    for (int run = 0; run < kRuns; ++run) {
      service::SocialService svc(&ds.graph(), ds.profiles, {});
      crawler::SamplerOptions options;
      options.target_users = target;
      options.rng_seed = bench::seed() + static_cast<std::uint64_t>(run);
      const auto result = crawler::sample_users(svc, kind, options);
      mean_sum += result.mean_in_degree;
      std::vector<double> sample_degrees;
      sample_degrees.reserve(result.users.size());
      for (auto u : result.users) {
        sample_degrees.push_back(static_cast<double>(ds.graph().in_degree(u)));
      }
      ks_sum += stats::ks_two_sample(sample_degrees, truth_degrees);
      requests += result.requests;
      steps += result.steps;
      users = result.users.size();
    }
    const double mean = mean_sum / kRuns;
    table.add_row({std::string(crawler::sampler_name(kind)),
                   core::fmt_count(users), core::fmt_double(mean, 2),
                   core::fmt_double(mean / truth_mean, 2),
                   core::fmt_double(ks_sum / kRuns, 3),
                   core::fmt_count(requests / kRuns),
                   core::fmt_count(steps / kRuns)});
  }
  std::cout << table.str() << "\n";
  std::cout << "reading: BFS and the raw walk over-sample popular accounts\n"
               "(bias ratio > 1); MHRW pays extra steps for near-uniform\n"
               "sampling — the correction [18] proposes for exactly the bias\n"
               "the paper's §2.2 concedes.\n";
  return 0;
}
