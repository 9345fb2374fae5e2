// E5 — Theorem 1: off-line scheduling in O(λ(M) · lg n) delivery cycles.
//
// For each workload and machine size, reports λ(M), the schedule length d,
// the paper's normalized ratio d / (2·λ·lg n) (the theorem says it is
// O(1)), and the greedy first-fit baseline for comparison.
//
// Gate (exit 1 on failure): in every row, each schedule (Theorem 1's, and
// the greedy and packed ones where the row has them) passes
// verify_schedule, a tally replay on the engine with one leaf-pair chunk
// per scheduled cycle, and has d >= λ; Theorem 1's also has
// d <= 2·max(1, λ)·lg n, the table's own normalizer. An invalid Theorem 1
// schedule stops the run at once: the packed scheduler packs the same
// per-node parts, and its first fit aborts on a part that does not fit
// one cycle.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>

#include "core/load.hpp"
#include "core/offline_scheduler.hpp"
#include "core/traffic.hpp"
#include "sim/experiment.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

int main() {
  ft::print_experiment_header(
      "E5", "Theorem 1 off-line scheduling",
      "any message set schedules in d = O(lambda(M) lg n) delivery cycles "
      "(lower bound d >= lambda)");

  bool ok = true;
  // One schedule's checks: a valid schedule of m, lambda <= d <= bound.
  // Returns whether the schedule is valid.
  const auto gate = [&ok](std::uint32_t n, const std::string& row,
                          const char* scheduler,
                          const ft::FatTreeTopology& topo,
                          const ft::CapacityProfile& caps,
                          const ft::MessageSet& m, const ft::Schedule& s,
                          double lambda, double bound) {
    const bool valid = ft::verify_schedule(topo, caps, m, s);
    const auto d = static_cast<double>(s.num_cycles());
    if (valid && d >= lambda && d <= bound) return true;
    std::cout << "GATE FAIL: n = " << n << ", " << row << ", " << scheduler
              << (valid ? "" : ": invalid schedule") << ": d = " << d
              << ", lambda = " << lambda << ", bound = " << bound << '\n';
    ok = false;
    return valid;
  };
  const auto verdict = [&ok] {
    std::cout << "\nTheorem 1 gate: every schedule is valid with d >= "
                 "lambda, and Theorem 1's d <= 2 max(1, lambda) lg n: "
              << (ok ? "passed" : "FAILED") << '\n';
    return ok ? 0 : 1;
  };
  constexpr double kNoBound = std::numeric_limits<double>::infinity();

  for (const std::uint32_t n : {256u, 1024u}) {
    ft::FatTreeTopology topo(n);
    const auto caps = ft::CapacityProfile::universal(topo, n / 4);
    ft::Rng rng(n);
    ft::Table table({"workload", "messages", "lambda", "cycles d",
                     "d/ceil(lambda)", "d/(2 lambda lg n)", "greedy d",
                     "packed d"});
    for (const auto& wl : ft::standard_workloads(n, rng)) {
      const double lambda = ft::load_factor(topo, caps, wl.messages);
      const auto s = ft::schedule_offline(topo, caps, wl.messages);
      const double denom =
          2.0 * std::max(1.0, lambda) * static_cast<double>(topo.height());
      if (!gate(n, wl.name, "offline", topo, caps, wl.messages, s, lambda,
                denom)) {
        return verdict();
      }
      const auto g = ft::schedule_greedy(topo, caps, wl.messages);
      const auto p = ft::schedule_offline_packed(topo, caps, wl.messages);
      gate(n, wl.name, "greedy", topo, caps, wl.messages, g, lambda,
           kNoBound);
      gate(n, wl.name, "packed", topo, caps, wl.messages, p, lambda,
           kNoBound);
      table.row()
          .add(wl.name)
          .add(wl.messages.size())
          .add(lambda, 2)
          .add(s.num_cycles())
          .add(static_cast<double>(s.num_cycles()) /
                   std::max(1.0, std::ceil(lambda)),
               2)
          .add(static_cast<double>(s.num_cycles()) / denom, 3)
          .add(g.num_cycles())
          .add(p.num_cycles());
    }
    table.print(std::cout, "n = " + std::to_string(n) +
                               ", universal fat-tree w = n/4");
    std::cout << '\n';
  }

  // λ sweep: cycles track λ linearly at fixed n (the lg n factor is
  // constant within a column).
  {
    const std::uint32_t n = 512;
    ft::FatTreeTopology topo(n);
    const auto caps = ft::CapacityProfile::universal(topo, 64);
    ft::Rng rng(7);
    ft::Table table({"stacked perms k", "lambda", "cycles d", "d/lambda"});
    for (std::uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
      const auto m = ft::stacked_permutations(n, k, rng);
      const double lambda = ft::load_factor(topo, caps, m);
      const auto s = ft::schedule_offline(topo, caps, m);
      gate(n, std::to_string(k) + " stacked perms", "offline", topo, caps, m,
           s, lambda,
           2.0 * std::max(1.0, lambda) * static_cast<double>(topo.height()));
      table.row().add(k).add(lambda, 2).add(s.num_cycles()).add(
          static_cast<double>(s.num_cycles()) / lambda, 2);
    }
    table.print(std::cout, "lambda sweep at n = 512: d/lambda is flat");
  }

  return verdict();
}
