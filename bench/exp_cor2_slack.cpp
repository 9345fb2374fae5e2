// E6 — Corollary 2: when every channel has capacity >= a·lg n, the lg n
// factor of Theorem 1 disappears and d <= (a/(a-1))·2·λ(M).
//
// Sweeps the slack parameter a on constant-capacity fat-trees and compares
// the reuse scheduler's cycle count against both λ and Theorem 1.
//
// Gate (exit 1 on failure): every row needs no repair and keeps d/λ below
// this implementation's own constant, 4a/(a-2). The scheduler reserves
// slack 2·lg n, so cap' = cap·(a-2)/a and λ' = λ·a/(a-2); it targets r
// sets, the smallest power of two >= 2λ', which is below 4λ'.
#include <iostream>
#include <string>

#include "core/load.hpp"
#include "core/reuse_scheduler.hpp"
#include "core/traffic.hpp"
#include "sim/experiment.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace {

double slack_bound(double a) { return 4.0 * a / (a - 2.0); }

}  // namespace

int main() {
  ft::print_experiment_header(
      "E6", "Corollary 2: capacity slack removes the lg n factor",
      "cap(c) >= a lg n for all c  =>  d <= (a/(a-1)) 2 lambda(M), "
      "independent of n");

  bool ok = true;
  const auto gate = [&ok](std::uint32_t n, double a, double ratio,
                          std::size_t repairs) {
    if (repairs == 0 && ratio < slack_bound(a)) return;
    std::cout << "GATE FAIL: n = " << n << ", a = " << a << ": d/lambda "
              << ratio << " (bound " << slack_bound(a) << "), " << repairs
              << " repairs\n";
    ok = false;
  };

  for (const std::uint32_t n : {256u, 1024u}) {
    ft::FatTreeTopology topo(n);
    const std::uint32_t lgn = topo.height();
    ft::Rng rng(n);
    const auto m = ft::stacked_permutations(n, 12, rng);

    ft::Table table({"a", "cap = a lg n", "lambda", "reuse d", "thm1 d",
                     "reuse d/lambda", "(a/(a-1))*2", "4a/(a-2)",
                     "repairs"});
    for (double a : {2.5, 3.0, 4.0, 6.0, 8.0}) {
      const auto cap = static_cast<std::uint64_t>(a * lgn);
      const auto caps = ft::CapacityProfile::constant(topo, cap);
      const double lambda = ft::load_factor(topo, caps, m);
      const auto reuse = ft::schedule_reuse(topo, caps, m);
      const auto thm1 = ft::schedule_offline(topo, caps, m);
      const double ratio =
          static_cast<double>(reuse.schedule.num_cycles()) / lambda;
      table.row()
          .add(a, 1)
          .add(cap)
          .add(lambda, 2)
          .add(reuse.schedule.num_cycles())
          .add(thm1.num_cycles())
          .add(ratio, 2)
          .add(a / (a - 1.0) * 2.0, 2)
          .add(slack_bound(a), 2)
          .add(reuse.repaired_messages);
      gate(n, a, ratio, reuse.repaired_messages);
    }
    table.print(std::cout,
                "n = " + std::to_string(n) + ", 12 stacked permutations");
    std::cout << '\n';
  }

  // n sweep at fixed a: d/λ must stay flat (no lg n growth).
  {
    const double a = 4.0;
    ft::Table table(
        {"n", "lg n", "lambda", "reuse d", "reuse d/lambda", "repairs"});
    for (std::uint32_t lg = 6; lg <= 12; ++lg) {
      const std::uint32_t n = 1u << lg;
      ft::FatTreeTopology topo(n);
      const auto caps = ft::CapacityProfile::constant(topo, 4 * lg);
      ft::Rng rng(lg);
      const auto m = ft::stacked_permutations(n, 12, rng);
      const double lambda = ft::load_factor(topo, caps, m);
      const auto reuse = ft::schedule_reuse(topo, caps, m);
      const double ratio =
          static_cast<double>(reuse.schedule.num_cycles()) / lambda;
      table.row()
          .add(n)
          .add(lg)
          .add(lambda, 2)
          .add(reuse.schedule.num_cycles())
          .add(ratio, 2)
          .add(reuse.repaired_messages);
      gate(n, a, ratio, reuse.repaired_messages);
    }
    table.print(std::cout, "a = 4 fixed, n sweeping: d/lambda stays flat");
  }

  std::cout << "\nslack gate: every row has 0 repairs and d/lambda < "
               "4a/(a-2): "
            << (ok ? "passed" : "FAILED") << '\n';
  return ok ? 0 : 1;
}
