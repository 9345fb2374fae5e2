// Shell-level tests for the ftsim CLI's checked argument parsing: every
// malformed flag value — non-numeric, negative, compound flags with
// missing fields or trailing garbage, fault values out of range — must
// produce exit status 2 (and the usage text), never a silently misparsed
// run or an abort. Before the checked parser, `--n 4x` ran with n = 4 and
// `--subtree-kill 1:2` read uninitialized fields; before the range
// checks, `--flap 1.5:0.5` or `--subtree-kill 0:1:4` stopped at an
// FT_CHECK (exit 134).
//
// The binary's path arrives via the FT_FTSIM_PATH compile definition
// ($<TARGET_FILE:example_ftsim>), so the test tracks whatever build
// directory layout CMake picked.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace {

/// Runs ftsim with `args`, returns its exit status (-1 if it died on a
/// signal). Output is discarded — these tests only assert on status.
int run_ftsim(const std::string& args) {
  const std::string cmd =
      std::string(FT_FTSIM_PATH) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

constexpr const char* kGoodBase =
    "--n 16 --w 4 --workload transpose --seed 1";

TEST(FtsimCli, WellFormedInvocationsExitZero) {
  EXPECT_EQ(run_ftsim(kGoodBase), 0);
  EXPECT_EQ(run_ftsim("--help"), 0);
  EXPECT_EQ(run_ftsim("-h"), 0);
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) +
                      " --scheduler online --policy adaptive"),
            0);
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) +
                      " --scheduler online --policy dmod --retry 4 "
                      "--backoff --deadline 64"),
            0);
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) +
                      " --scheduler online --faults 0.05 --flap 0.1:0.5"),
            0);
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) +
                      " --scheduler online --subtree-kill 2:1:4"),
            0);
  // Range edges: the last leaf (2n - 1 = 31), the leaf level (lg n = 4),
  // probabilities and factors of exactly 1.
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) +
                      " --scheduler online --subtree-kill 31:1:4 "
                      "--subtree-storm 0.5:4 --flap 0.1:1 --brownout 1:2:1"),
            0);
  // n = 2 is below local-r4's radius of 4.
  EXPECT_EQ(run_ftsim("--n 2 --workload all"), 0);
}

TEST(FtsimCli, MalformedNumericValuesAreRejected) {
  const char* bad[] = {
      "--n 4x",           // trailing garbage
      "--n abc",          // not a number
      "--n -4",           // negative
      "--n",              // missing value
      "--n ''",           // empty value
      "--w 1e3x",         // garbage after float-ish token
      "--stack 2.5",      // not an integer
      "--retry 0x10",     // hex not accepted
      "--deadline -1",    // negative wraparound trap
      "--seed 12_34",     // separator garbage
      "--faults abc",     // not a number
      "--faults -0.1",    // negative probability
      "--faults 1.5",     // probability above 1
      "--faults nan",     // not a probability
      "--w ' -1'",        // strtoull skips the blank, then wraps the sign
      "--seed ' 5'",      // leading whitespace
      "--faults ' 0.5'",  // leading whitespace
      "--parallel=two",   // word where a count belongs
      "--parallel=4096",  // more threads than the ceiling
      "--parallel=18446744073709551615",  // 2^64 - 1 wraps the pool's slots
      "--shard-level=x",  // garbage shard level
      "--telemetry=0",    // explicit zero period is meaningless
      "--telemetry=5x",   // trailing garbage
  };
  for (const char* flags : bad) {
    EXPECT_EQ(run_ftsim(std::string(kGoodBase) + " " + flags), 2)
        << "flags: " << flags;
  }
}

TEST(FtsimCli, MalformedCompoundFlagsAreRejected) {
  const char* bad[] = {
      "--flap 0.1",              // missing second field
      "--flap 0.1:0.5:0.9",      // trailing extra field
      "--flap abc:0.5",          // non-numeric field
      "--flap 0.1:",             // empty trailing field
      "--flap :0.5",             // empty leading field
      "--brownout 1:2",          // missing factor
      "--brownout 1:2:0.5:9",    // trailing garbage
      "--brownout a:2:0.5",      // non-numeric field
      "--burst 1:2",             // missing count
      "--burst 1:2:3:4",         // extra field
      "--subtree-kill 1:2",      // missing duration (read garbage before)
      "--subtree-kill 1:2:3:4",  // extra field
      "--subtree-kill -1:2:3",   // negative node wraparound trap
      "--subtree-storm 0.5",     // missing level
      "--subtree-storm 0.5:2:7", // extra field
      "--subtree-kill 0:1:4",    // node 0 is not a tree node
      "--subtree-kill 32:1:4",   // beyond the last node, 2n - 1 = 31
      "--subtree-kill 2:0:4",    // cycles count from 1
      "--subtree-kill 2:1:0",    // empty outage
      "--subtree-storm 1.5:2",   // probability above 1
      "--subtree-storm 0.5:5",   // level below the leaves (lg n = 4)
      "--flap 1.5:0.5",          // P(down) above 1
      "--flap 0.1:1.5",          // P(up) above 1
      "--flap 0.1:nan",          // not a probability
      "--brownout 1:2:1.5",      // capacity factor above 1
      "--brownout 1:2:nan",      // not a factor
      "--burst 0:2:3",           // cycles count from 1
  };
  for (const char* flags : bad) {
    EXPECT_EQ(
        run_ftsim(std::string(kGoodBase) + " --scheduler online " + flags), 2)
        << "flags: " << flags;
  }
}

TEST(FtsimCli, UnknownFlagsAndPoliciesAreRejected) {
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) + " --frobnicate"), 2);
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) +
                      " --scheduler online --policy bogus"),
            2);
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) +
                      " --scheduler online --policy"),
            2);
  // Policy names are exact, not prefixes.
  EXPECT_EQ(run_ftsim(std::string(kGoodBase) +
                      " --scheduler online --policy adaptive2"),
            2);
}

}  // namespace
