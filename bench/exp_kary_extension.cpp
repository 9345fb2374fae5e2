// E13 — forward-looking extension: k-ary n-trees (the constant-radix
// folded-Clos realization of fat-trees used by modern interconnects),
// with an ablation of up-path selection policies.
//
// Gate (exit 1 on failure; the verdict goes to stderr, so stdout is the
// tables alone): every run delivers its permutation in at least as many
// rounds as its longest route has hops (rounds/hops >= 1); on the 2-ary
// 6-tree, random and least-loaded ascent both keep the max link load
// below d-mod-k's; on the shift permutation least-loaded ascent takes
// fewer rounds than d-mod-k; and a pair whose nearest common ancestor is
// at level nca has k^(levels - 1 - nca) distinct paths.
#include <algorithm>
#include <iostream>
#include <string>

#include "kary/kary_sim.hpp"
#include "sim/experiment.hpp"
#include "util/table.hpp"

int main() {
  ft::print_experiment_header(
      "E13", "k-ary n-tree extension (Section VII outlook)",
      "constant-radix fat-trees route permutations with low congestion "
      "when ascent paths are spread (random/least-loaded) rather than "
      "deterministic");

  bool ok = true;
  const auto gate = [&ok](bool pass, const std::string& what) {
    if (pass) return;
    std::cerr << "GATE FAIL: " << what << '\n';
    ok = false;
  };

  {
    ft::Table table({"k", "levels", "procs", "policy", "max link load",
                     "rounds", "rounds/hops"});
    struct Shape {
      std::uint32_t k, levels;
    };
    for (const auto shape : {Shape{2, 6}, Shape{4, 3}, Shape{8, 2}}) {
      ft::KaryTree tree(shape.k, shape.levels);
      ft::Rng perm_rng(shape.k * 10 + shape.levels);
      const auto perm = perm_rng.permutation(tree.num_processors());
      std::uint64_t dmodk_load = 0;
      for (auto policy : {ft::AscentPolicy::DModK, ft::AscentPolicy::Random,
                          ft::AscentPolicy::LeastLoaded}) {
        const char* name = policy == ft::AscentPolicy::DModK ? "d-mod-k"
                           : policy == ft::AscentPolicy::Random
                               ? "random"
                               : "least-loaded";
        ft::Rng rng(99);
        const auto r = ft::simulate_kary_permutation(tree, perm, policy, rng);
        const std::string row = std::to_string(shape.k) + "-ary " +
                                std::to_string(shape.levels) + "-tree, " +
                                name;
        gate(r.delivered == perm.size() && r.rounds >= r.max_route_hops,
             row + ": rounds/hops below 1 or permutation undelivered");
        if (policy == ft::AscentPolicy::DModK) {
          dmodk_load = r.max_link_load;
        } else if (shape.k == 2) {
          gate(r.max_link_load < dmodk_load,
               row + ": max link load not below d-mod-k's");
        }
        table.row()
            .add(shape.k)
            .add(shape.levels)
            .add(tree.num_processors())
            .add(name)
            .add(r.max_link_load)
            .add(static_cast<std::uint64_t>(r.rounds))
            .add(static_cast<double>(r.rounds) / r.max_route_hops, 2);
      }
    }
    table.print(std::cout, "random permutation across tree shapes "
                           "(64 processors each)");
    std::cout << '\n';
  }

  // Adversarial shift traffic: deterministic ascent funnels, spreading
  // policies flatten.
  {
    ft::KaryTree tree(4, 3);
    const std::uint32_t n = tree.num_processors();
    std::vector<std::uint32_t> shift(n);
    for (std::uint32_t p = 0; p < n; ++p) shift[p] = (p + n / 4) % n;
    ft::Table table({"policy", "max link load", "rounds"});
    std::uint64_t dmodk_rounds = 0;
    for (auto policy : {ft::AscentPolicy::DModK, ft::AscentPolicy::Random,
                        ft::AscentPolicy::LeastLoaded}) {
      const char* name = policy == ft::AscentPolicy::DModK ? "d-mod-k"
                         : policy == ft::AscentPolicy::Random
                             ? "random"
                             : "least-loaded";
      ft::Rng rng(7);
      const auto r = ft::simulate_kary_permutation(tree, shift, policy, rng);
      gate(r.delivered == n && r.rounds >= r.max_route_hops,
           std::string("shift, ") + name +
               ": rounds/hops below 1 or permutation undelivered");
      if (policy == ft::AscentPolicy::DModK) dmodk_rounds = r.rounds;
      if (policy == ft::AscentPolicy::LeastLoaded) {
        gate(r.rounds < dmodk_rounds,
             "shift, least-loaded: rounds not below d-mod-k's");
      }
      table.row().add(name).add(r.max_link_load).add(
          static_cast<std::uint64_t>(r.rounds));
    }
    table.print(std::cout, "adversarial shift permutation, 4-ary 3-tree");
  }

  // Path diversity as a function of distance.
  {
    ft::KaryTree tree(4, 4);  // 256 processors
    ft::Table table({"nca level", "ascent hops", "distinct paths"});
    for (std::uint32_t nca = 0; nca < tree.levels(); ++nca) {
      // A destination whose digit string shares exactly `nca` digits.
      std::uint32_t dst = 0;
      for (std::uint32_t i = nca; i < tree.levels(); ++i) {
        dst += 1u << (2 * (tree.levels() - 1 - i));  // digit 1 at i
      }
      std::uint64_t want = 1;
      for (std::uint32_t i = nca + 1; i < tree.levels(); ++i) want *= tree.k();
      gate(tree.path_diversity(0, dst) == want,
           "nca level " + std::to_string(nca) + ": path diversity is not k^" +
               std::to_string(tree.levels() - 1 - nca));
      table.row()
          .add(nca)
          .add(tree.levels() - 1 > nca ? tree.levels() - 1 - nca : 0)
          .add(tree.path_diversity(0, dst));
    }
    table.print(std::cout, "path diversity on a 4-ary 4-tree");
  }
  std::cerr << "E13 gate: rounds/hops >= 1, spread ascent beats d-mod-k's "
               "max load on the 2-ary 6-tree and its rounds on the shift, "
               "and path diversity is k^(levels - 1 - nca): "
            << (ok ? "passed" : "FAILED") << '\n';
  return ok ? 0 : 1;
}
