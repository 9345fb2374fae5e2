// E10 — Theorem 10, the universality theorem: a universal fat-tree of
// volume v simulates any routing network of volume v off-line with
// O(lg³ n) slowdown.
//
// Runs the full pipeline (layout -> decomposition -> balance -> identify
// -> schedule) for hypercube, mesh, butterfly, shuffle-exchange, and the
// simple binary tree, across workloads and sizes.
//
// Gate (exit 1 on failure; the verdict goes to stderr, so stdout is the
// tables alone): every slowdown/lg^3 n the tables print is at most
// kMaxRatio, and the size sweep's ratio at n = 512 is no higher than at
// n = 32, so the slowdown grows no faster than lg^3 n.
#include <algorithm>
#include <iostream>
#include <string>

#include "core/traffic.hpp"
#include "nets/builders.hpp"
#include "nets/layouts.hpp"
#include "sim/universality.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "sim/experiment.hpp"

/// The gate's bound on slowdown/lg^3 n: the O(lg^3 n) constant this
/// reproduction claims (every row reads 0.07 or less).
constexpr double kMaxRatio = 0.1;

int main() {
  ft::print_experiment_header(
      "E10", "Theorem 10 universality",
      "any network R of volume v is simulated by the equal-volume "
      "universal fat-tree with O(lg^3 n) slowdown (off-line)");

  bool ok = true;
  const auto gate = [&ok](const std::string& row, double ratio) {
    if (ratio <= kMaxRatio) return;
    std::cerr << "GATE FAIL: " << row << ": slowdown/lg^3 n = " << ratio
              << " > " << kMaxRatio << '\n';
    ok = false;
  };

  {
    const std::uint32_t n = 256;
    ft::Rng rng(1);
    const auto m = ft::random_permutation_traffic(n, rng);

    struct Case {
      ft::Network net;
      ft::Layout3D layout;
    };
    std::vector<Case> cases;
    cases.push_back({ft::build_hypercube(8), ft::layout_hypercube(n)});
    cases.push_back({ft::build_mesh2d(16, 16), ft::layout_mesh2d(16, 16)});
    cases.push_back(
        {ft::build_shuffle_exchange(8), ft::layout_shuffle_exchange(n)});
    cases.push_back({ft::build_butterfly(8), ft::layout_butterfly(n)});
    cases.push_back({ft::build_binary_tree(8), ft::layout_binary_tree(n)});
    cases.push_back(
        {ft::build_tree_of_meshes(8), ft::layout_tree_of_meshes(n)});

    ft::Table table({"network R", "volume v", "ft root cap", "R rounds t",
                     "ft lambda", "ft cycles", "slowdown", "slowdown/lg^3 n"});
    for (const auto& c : cases) {
      const auto r = ft::simulate_network_on_fattree(c.net, c.layout, m);
      gate(c.net.name() + ", random permutation", r.slowdown / r.lg3_n);
      table.row()
          .add(c.net.name())
          .add(r.volume, 0)
          .add(r.ft_root_capacity)
          .add(static_cast<std::uint64_t>(r.competitor_rounds))
          .add(r.load_factor, 2)
          .add(r.ft_cycles)
          .add(r.slowdown, 1)
          .add(r.slowdown / r.lg3_n, 3);
    }
    table.print(std::cout,
                "random permutation, n = 256, equal-volume comparison");
    std::cout << '\n';
  }

  // Workload sweep on the hypercube (the strongest competitor).
  {
    const std::uint32_t n = 256;
    const auto net = ft::build_hypercube(8);
    const auto layout = ft::layout_hypercube(n);
    ft::Rng rng(3);
    ft::Table table({"workload", "R rounds t", "ft cycles", "slowdown",
                     "slowdown/lg^3 n"});
    for (const auto& wl : ft::standard_workloads(n, rng)) {
      const auto r = ft::simulate_network_on_fattree(net, layout, wl.messages);
      gate("hypercube, " + wl.name, r.slowdown / r.lg3_n);
      table.row()
          .add(wl.name)
          .add(static_cast<std::uint64_t>(r.competitor_rounds))
          .add(r.ft_cycles)
          .add(r.slowdown, 1)
          .add(r.slowdown / r.lg3_n, 3);
    }
    table.print(std::cout, "hypercube vs equal-volume fat-tree, by workload");
    std::cout << '\n';
  }

  // Size sweep: the slowdown grows like a polylog, not a polynomial.
  {
    ft::Table table({"n", "lg^3 n", "slowdown (hypercube, rand perm)",
                     "slowdown/lg^3 n"});
    double first = 0.0;
    double last = 0.0;
    for (std::uint32_t lg = 5; lg <= 9; ++lg) {
      const std::uint32_t n = 1u << lg;
      ft::Rng rng(lg);
      const auto m = ft::random_permutation_traffic(n, rng);
      const auto r = ft::simulate_network_on_fattree(
          ft::build_hypercube(lg), ft::layout_hypercube(n), m);
      last = r.slowdown / r.lg3_n;
      if (lg == 5) first = last;
      gate("size sweep, n = " + std::to_string(n), last);
      table.row()
          .add(n)
          .add(r.lg3_n, 0)
          .add(r.slowdown, 1)
          .add(r.slowdown / r.lg3_n, 3);
    }
    table.print(std::cout, "size sweep: slowdown/lg^3 n stays bounded");
    if (last > first) {
      std::cerr << "GATE FAIL: size sweep: slowdown/lg^3 n at n = 512 ("
                << last << ") exceeds n = 32's (" << first << ")\n";
      ok = false;
    }
  }
  std::cerr << "Theorem 10 gate: slowdown/lg^3 n <= " << kMaxRatio
            << " in every row, and no higher at n = 512 than at n = 32: "
            << (ok ? "passed" : "FAILED") << '\n';
  return ok ? 0 : 1;
}
