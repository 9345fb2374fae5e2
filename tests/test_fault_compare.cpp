// Differential and property tests across the four delivery backends
// (ISSUE 5 satellites): message conservation under correlated subtree
// faults, fault-free online vs store-and-forward delivered-set equality,
// the Corollary 2 slack property, and verify_schedule acceptance of every
// schedule_offline output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/capacity.hpp"
#include "core/load.hpp"
#include "core/offline_scheduler.hpp"
#include "core/online_router.hpp"
#include "core/replay.hpp"
#include "core/reuse_scheduler.hpp"
#include "core/topology.hpp"
#include "core/traffic.hpp"
#include "engine/fat_tree_model.hpp"
#include "engine/fault_plan.hpp"
#include "engine/kary_model.hpp"
#include "kary/kary_sim.hpp"
#include "kary/kary_tree.hpp"
#include "nets/builders.hpp"
#include "nets/routing.hpp"
#include "nets/store_forward.hpp"
#include "obs/trace.hpp"
#include "util/bits.hpp"

namespace {

std::uint64_t sum_u32(const std::vector<std::uint32_t>& v) {
  std::uint64_t s = 0;
  for (const std::uint32_t x : v) s += x;
  return s;
}

std::vector<std::uint32_t> random_perm(std::uint32_t n, ft::Rng& rng) {
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (std::uint32_t i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<std::uint32_t>(rng.below(std::size_t{i} + 1));
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

}  // namespace

// Every backend, run under the *same* correlated subtree-kill scenario
// (scheduled kill + storm + varying retry policies), accounts for every
// injected message: delivered + given_up == injected, with nothing parked
// or in flight at termination.
TEST(FaultCompare, ConservationAcrossBackends) {
  constexpr std::uint32_t n = 32;
  const ft::FatTreeTopology topo(n);
  const std::uint32_t L = topo.height();
  const auto caps = ft::CapacityProfile::universal(topo, 8);
  const ft::Network net = ft::build_binary_tree(L);
  const ft::KaryTree ktree(2, L);

  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    ft::Rng trng(100 + trial);
    const auto perm = random_perm(n, trng);
    ft::MessageSet m;
    for (std::uint32_t p = 0; p < n; ++p) m.push_back({p, perm[p]});

    // Kill a rotating level-2 subtree at cycle 1 and let a storm strike
    // the rest of that level; domains fate-share whole subtrees.
    const std::uint32_t kill_node =
        4u + static_cast<std::uint32_t>(trial % 4);
    ft::FaultPlan plan(500 + trial);
    {
      std::vector<ft::FaultDomain> domains;
      for (std::uint32_t v = 4; v < 8; ++v)
        domains.push_back(ft::fat_tree_subtree_domain(topo, v));
      plan.set_domains(std::move(domains));
      plan.add_subtree_kill({kill_node, 1, 6});
      plan.set_storm({0.02, 1, 4});
    }

    {  // online, cycling through retry policies (incl. give-up paths)
      ft::OnlineRouterOptions opts;
      opts.fault_plan = &plan;
      if (trial == 1) {
        opts.retry.exponential_backoff = true;
        opts.retry.max_backoff = 8;
      } else if (trial == 2) {
        opts.retry.max_attempts = 5;
      } else if (trial == 3) {
        opts.retry.deadline_cycles = 12;
      }
      ft::Rng rng(17 + trial);
      const auto res = ft::route_online(topo, caps, m, rng, opts);
      EXPECT_FALSE(res.gave_up);
      EXPECT_EQ(sum_u32(res.delivered_per_cycle) + res.messages_given_up,
                m.size());
    }
    {  // offline schedule replayed through the same plan
      const auto schedule = ft::schedule_offline(topo, caps, m);
      ft::ReplayOptions ropts;
      ropts.fault_plan = &plan;
      const auto res = ft::replay_schedule(topo, caps, schedule, ropts);
      EXPECT_EQ(res.delivered + res.messages_given_up,
                schedule.total_messages());
      EXPECT_GE(res.subtree_kill_events, 1u);
    }
    {  // store-and-forward on the unit binary tree (queues wait out kills)
      ft::FaultPlan plan_bt(500 + trial);
      std::vector<ft::FaultDomain> domains;
      for (std::uint32_t v = 4; v < 8; ++v)
        domains.push_back(ft::binary_tree_subtree_domain(L, v));
      plan_bt.set_domains(std::move(domains));
      plan_bt.add_subtree_kill({kill_node, 1, 6});
      plan_bt.set_storm({0.02, 1, 4});
      const auto routes = ft::route_all_bfs(net, m);
      ft::StoreForwardOptions sopts;
      sopts.fault_plan = &plan_bt;
      const auto res = ft::simulate_store_forward(net, routes, sopts);
      EXPECT_FALSE(res.gave_up);
      EXPECT_EQ(res.delivered, routes.size());
    }
    {  // k-ary n-tree (k = 2): pods are the same subtrees by label
      ft::FaultPlan plan_ka(500 + trial);
      std::vector<ft::FaultDomain> domains;
      for (std::uint32_t v = 4; v < 8; ++v)
        domains.push_back(
            ft::kary_pod_domain(ktree, 2, v - 4));
      plan_ka.set_domains(std::move(domains));
      plan_ka.add_subtree_kill({kill_node, 1, 6});
      plan_ka.set_storm({0.02, 1, 4});
      ft::StoreForwardOptions kopts;
      kopts.fault_plan = &plan_ka;
      ft::Rng rng(23 + trial);
      const auto res = ft::simulate_kary_permutation(
          ktree, perm, ft::AscentPolicy::DModK, rng, kopts);
      EXPECT_EQ(res.delivered, perm.size());
    }
  }
}

// Fault-free differential: the lossy online router and the FIFO
// store-and-forward simulator deliver exactly the same message multiset
// (they disagree on *when*, never on *what*).
TEST(FaultCompare, FaultFreeOnlineMatchesStoreForwardDeliveredSet) {
  constexpr std::uint32_t n = 32;
  const ft::FatTreeTopology topo(n);
  const auto caps = ft::CapacityProfile::universal(topo, 8);
  const ft::Network net = ft::build_binary_tree(topo.height());

  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    ft::Rng trng(7 + trial);
    // Mixed traffic, including self messages and repeated pairs.
    auto m = ft::uniform_random_traffic(n, 3 * n, trng);
    std::vector<ft::Message> nonself;
    for (const auto& msg : m)
      if (msg.src != msg.dst) nonself.push_back(msg);

    std::vector<std::pair<std::uint32_t, std::uint32_t>> online_set;
    {
      ft::TraceSink trace;
      ft::OnlineRouterOptions opts;
      opts.observer = &trace;
      ft::Rng rng(31 + trial);
      const auto res = ft::route_online(topo, caps, m, rng, opts);
      ASSERT_FALSE(res.gave_up);
      // Online trace ids index the non-self messages in injection order.
      for (const auto& e : trace.message_events()) {
        if (e.kind == ft::MessageEventKind::Deliver) {
          ASSERT_LT(e.message, nonself.size());
          online_set.emplace_back(nonself[e.message].src,
                                  nonself[e.message].dst);
        }
      }
    }

    std::vector<std::pair<std::uint32_t, std::uint32_t>> fifo_set;
    {
      const auto routes = ft::route_all_bfs(net, m);
      ft::TraceSink trace;
      ft::StoreForwardOptions sopts;
      sopts.observer = &trace;
      const auto res = ft::simulate_store_forward(net, routes, sopts);
      ASSERT_FALSE(res.gave_up);
      EXPECT_EQ(res.delivered, routes.size());
      // FIFO trace ids index the full route list (self routes are empty
      // and deliver at round 0); keep only the non-self ones to compare.
      for (const auto& e : trace.message_events()) {
        if (e.kind == ft::MessageEventKind::Deliver &&
            m[e.message].src != m[e.message].dst) {
          fifo_set.emplace_back(m[e.message].src, m[e.message].dst);
        }
      }
    }

    std::sort(online_set.begin(), online_set.end());
    std::sort(fifo_set.begin(), fifo_set.end());
    EXPECT_EQ(online_set.size(), nonself.size());
    EXPECT_EQ(online_set, fifo_set);
  }
}

// Corollary 2 as a randomized property: with capacity slack
// cap(c) >= a·lg n (a > 2), the repo's schedulers produce a schedule
// within (a/(a-1))·2·λ(M) cycles — the lg n factor is gone — and the
// reuse scheduler never needs its Theorem 1 repair path.
TEST(Cor2Property, SlackRemovesLgNFactor) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::uint32_t n = 64u << (trial % 3);  // 64, 128, 256
    const double a = (trial % 2 == 0) ? 2.5 : 3.0;
    const ft::FatTreeTopology topo(n);
    const std::uint32_t lgn = topo.height();
    const auto cap = static_cast<std::uint64_t>(std::ceil(a * lgn));
    const auto caps = ft::CapacityProfile::constant(topo, cap);

    ft::Rng rng(900 + trial);
    const auto stack = 3 + static_cast<std::uint32_t>(rng.below(8));
    const auto m = ft::stacked_permutations(n, stack, rng);
    const double lambda = ft::load_factor(topo, caps, m);
    ASSERT_GT(lambda, 0.0);

    const auto reuse = ft::schedule_reuse(topo, caps, m);
    const auto thm1 = ft::schedule_offline(topo, caps, m);
    EXPECT_EQ(reuse.repaired_messages, 0u);  // premise a > 2 held
    EXPECT_TRUE(ft::verify_schedule(topo, caps, m, reuse.schedule));
    EXPECT_TRUE(ft::verify_schedule(topo, caps, m, thm1));

    // The corollary asserts a schedule within the bound *exists*; the
    // best of the two implementations must witness it.
    const double bound = a / (a - 1.0) * 2.0 * lambda;
    const auto best = std::min(reuse.schedule.num_cycles(),
                               thm1.num_cycles());
    EXPECT_LE(static_cast<double>(best), bound)
        << "n=" << n << " a=" << a << " stack=" << stack
        << " lambda=" << lambda << " reuse=" << reuse.schedule.num_cycles()
        << " thm1=" << thm1.num_cycles();
  }
}

// verify_schedule accepts every schedule_offline output, across traffic
// shapes and capacity profiles (including the skinny unit tree).
TEST(Cor2Property, VerifyScheduleAcceptsOfflineOutputs) {
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::uint32_t n = 32u << (trial % 2);  // 32, 64
    const ft::FatTreeTopology topo(n);
    ft::Rng rng(1200 + trial);

    ft::MessageSet m;
    switch (trial % 3) {
      case 0:
        m = ft::stacked_permutations(
            n, 2 + static_cast<std::uint32_t>(rng.below(4)), rng);
        break;
      case 1:
        m = ft::uniform_random_traffic(n, 2 * n, rng);
        break;
      default:
        m = ft::complement_traffic(n);
        break;
    }

    const auto caps = (trial % 2 == 0)
                          ? ft::CapacityProfile::universal(topo, 16)
                          : ft::CapacityProfile::constant(topo, 1);
    const auto s = ft::schedule_offline(topo, caps, m);
    EXPECT_EQ(s.total_messages(), m.size());
    EXPECT_TRUE(ft::verify_schedule(topo, caps, m, s));
  }
}
