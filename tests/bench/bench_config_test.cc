// Flag-matrix coverage for the bench harness parser: every flag accepted,
// every malformed value rejected with InvalidArgument (a typo must never
// silently run an empty or partial table), and --quick/default/override
// precedence in ApplyOverrides.

#include "bench/harness.h"

#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace reach {
namespace bench {
namespace {

StatusOr<BenchOverrides> Parse(std::vector<std::string> args,
                               bool allow_experiments = false) {
  std::vector<std::string> storage = std::move(args);
  storage.insert(storage.begin(), "bench_test");
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  return ParseArgs(static_cast<int>(argv.size()), argv.data(),
                   allow_experiments);
}

TEST(ParseArgsTest, EmptyCommandLineIsDefaults) {
  const auto parsed = Parse({});
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->quick);
  EXPECT_FALSE(parsed->help);
  EXPECT_FALSE(parsed->num_queries.has_value());
  EXPECT_FALSE(parsed->budget_seconds.has_value());
  EXPECT_TRUE(parsed->datasets.empty());
  EXPECT_TRUE(parsed->methods.empty());
  EXPECT_EQ(parsed->format, "text");
  EXPECT_TRUE(parsed->out_path.empty());
}

TEST(ParseArgsTest, AcceptsEveryFlag) {
  const auto parsed = Parse({"--quick", "--queries=500",
                             "--datasets=arxiv,human", "--methods=DL,HL",
                             "--budget-seconds=2.5", "--threads=8",
                             "--format=json", "--out=/tmp/r.json"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->quick);
  EXPECT_EQ(*parsed->num_queries, 500u);
  EXPECT_EQ(parsed->datasets, (std::vector<std::string>{"arxiv", "human"}));
  EXPECT_EQ(parsed->methods, (std::vector<std::string>{"DL", "HL"}));
  EXPECT_DOUBLE_EQ(*parsed->budget_seconds, 2.5);
  EXPECT_EQ(*parsed->threads, 8);
  EXPECT_EQ(parsed->format, "json");
  EXPECT_EQ(parsed->out_path, "/tmp/r.json");
}

TEST(ParseArgsTest, HelpFlagSetsHelp) {
  ASSERT_TRUE(Parse({"--help"})->help);
  ASSERT_TRUE(Parse({"-h"})->help);
}

TEST(ParseArgsTest, HelpPreemptsValidationOfOtherFlags) {
  // A user asking for usage must get it (exit 0) even when the rest of the
  // command line would fail validation.
  for (const auto& args :
       {std::vector<std::string>{"--queries=bogus", "--help"},
        std::vector<std::string>{"--frobnicate", "-h"},
        std::vector<std::string>{"--datasets=no-such-dataset", "--help"}}) {
    const auto parsed = Parse(args);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(parsed->help);
  }
}

TEST(ParseArgsTest, ThreadsRequiresPositiveInteger) {
  for (const char* bad : {"--threads=0", "--threads=abc", "--threads=",
                          "--threads=-2", "--threads=1.5",
                          "--threads=2000"}) {
    const auto parsed = Parse({bad});
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
  }
  EXPECT_EQ(*Parse({"--threads=1"})->threads, 1);
  EXPECT_EQ(*Parse({"--threads=64"})->threads, 64);
}

TEST(ParseArgsTest, RejectsUnknownFlag) {
  const auto parsed = Parse({"--frobnicate"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  EXPECT_NE(parsed.status().message().find("--frobnicate"),
            std::string::npos);
}

TEST(ParseArgsTest, RejectsMalformedQueries) {
  for (const char* bad : {"--queries=abc", "--queries=", "--queries=-5",
                          "--queries=12x", "--queries=0", "--queries=+5",
                          "--queries= 5", "--queries=0x10",
                          "--queries=99999999999999999999999"}) {
    const auto parsed = Parse({bad});
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
}

TEST(ParseArgsTest, RejectsMalformedBudgetSeconds) {
  for (const char* bad :
       {"--budget-seconds=abc", "--budget-seconds=", "--budget-seconds=-1",
        "--budget-seconds=1.5x", "--budget-seconds=nan",
        "--budget-seconds=inf", "--budget-seconds=0x2",
        "--budget-seconds= 1", "--budget-seconds=+2"}) {
    const auto parsed = Parse({bad});
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
}

TEST(ParseArgsTest, AcceptsZeroBudgetSecondsAsUnlimited) {
  const auto parsed = Parse({"--budget-seconds=0"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(*parsed->budget_seconds, 0);
}

TEST(ParseArgsTest, AcceptsExponentBudgetSeconds) {
  const auto parsed = Parse({"--budget-seconds=2.5e+1"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(*parsed->budget_seconds, 25);
}

TEST(ParseArgsTest, RejectsUnknownDatasetListingKnownNames) {
  const auto parsed = Parse({"--datasets=arxiv,arxivv"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  // The message names the typo and lists valid spellings.
  EXPECT_NE(parsed.status().message().find("arxivv"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("citeseer"), std::string::npos);
  // Only the small and large tiers are known; a paper-original-size name
  // from the retired third tier is rejected too.
  const auto retired = Parse({"--datasets=uniprotenc_22m_full"});
  ASSERT_FALSE(retired.ok());
  EXPECT_TRUE(retired.status().IsInvalidArgument());
}

TEST(ParseArgsTest, RejectsEmptyDatasetEntry) {
  EXPECT_FALSE(Parse({"--datasets="}).ok());
  EXPECT_FALSE(Parse({"--datasets=arxiv,"}).ok());
}

TEST(ParseArgsTest, RejectsUnknownMethodListingKnownNames) {
  const auto parsed = Parse({"--methods=DL,NOPE"});
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  EXPECT_NE(parsed.status().message().find("NOPE"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("2HOP"), std::string::npos);
}

TEST(ParseArgsTest, RejectsBadFormat) {
  EXPECT_FALSE(Parse({"--format=xml"}).ok());
  EXPECT_FALSE(Parse({"--format="}).ok());
  EXPECT_TRUE(Parse({"--format=csv"}).ok());
}

TEST(ParseArgsTest, RejectsEmptyOutPath) {
  EXPECT_FALSE(Parse({"--out="}).ok());
}

TEST(ParseArgsTest, ExperimentsFlagOnlyWhereAllowed) {
  // Single-table binaries do not take --experiments; bench_all does.
  EXPECT_FALSE(Parse({"--experiments=table2"}, false).ok());
  const auto parsed = Parse({"--experiments=table2,fig3"}, true);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->experiments,
            (std::vector<std::string>{"table2", "fig3"}));
}

TEST(ParseArgsTest, RejectsUnknownExperiment) {
  const auto parsed = Parse({"--experiments=table9"}, true);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("table9"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("fig4"), std::string::npos);
  // The registry holds the paper's experiments only: the retired serving
  // throughput experiment is an unknown name like any other.
  const auto retired = Parse({"--experiments=serve_quick"}, true);
  ASSERT_FALSE(retired.ok());
  EXPECT_TRUE(retired.status().IsInvalidArgument());
}

TEST(ApplyOverridesTest, DefaultsPassThrough) {
  const BenchConfig config = ApplyOverrides(SmallTableDefaults(), {});
  EXPECT_EQ(config.num_queries, 100000u);
  EXPECT_DOUBLE_EQ(config.build_time_budget_seconds, 60);
  EXPECT_EQ(config.build_index_budget_integers, 0u);
  EXPECT_FALSE(config.quick);
  EXPECT_EQ(config.format, "text");
}

TEST(ApplyOverridesTest, QuickTightensBudgets) {
  BenchOverrides overrides;
  overrides.quick = true;
  const BenchConfig small = ApplyOverrides(SmallTableDefaults(), overrides);
  EXPECT_TRUE(small.quick);
  EXPECT_EQ(small.num_queries, 2000u);
  EXPECT_DOUBLE_EQ(small.build_time_budget_seconds, 5);
  EXPECT_EQ(small.build_index_budget_integers, 20000000u);

  // An already-tighter index cap survives --quick.
  BenchConfig tight = LargeTableDefaults();
  tight.build_index_budget_integers = 1000;
  EXPECT_EQ(ApplyOverrides(tight, overrides).build_index_budget_integers,
            1000u);
}

TEST(ApplyOverridesTest, ExplicitFlagsBeatQuick) {
  BenchOverrides overrides;
  overrides.quick = true;
  overrides.num_queries = 777;
  overrides.budget_seconds = 9;
  const BenchConfig config = ApplyOverrides(SmallTableDefaults(), overrides);
  EXPECT_EQ(config.num_queries, 777u);
  EXPECT_DOUBLE_EQ(config.build_time_budget_seconds, 9);
}

TEST(ApplyOverridesTest, ThreadsDefaultsToZeroAndFollowsTheFlag) {
  // 0 = "resolve at Build time" (REACH_THREADS env, else hardware).
  EXPECT_EQ(ApplyOverrides(SmallTableDefaults(), {}).threads, 0);
  BenchOverrides overrides;
  overrides.threads = 8;
  EXPECT_EQ(ApplyOverrides(LargeTableDefaults(), overrides).threads, 8);
}

TEST(MetricNamesTest, StableMachineReadableNames) {
  EXPECT_EQ(MetricName(Metric::kQueryMillis), "query_ms_per_100k");
  EXPECT_EQ(MetricName(Metric::kConstructionMillis), "construction_ms");
  EXPECT_EQ(MetricName(Metric::kIndexIntegers), "index_integers");
  EXPECT_EQ(WorkloadName(WorkloadKind::kEqual), "equal");
  EXPECT_EQ(WorkloadName(WorkloadKind::kRandom), "random");
  EXPECT_EQ(WorkloadName(WorkloadKind::kNone), "none");
}

std::optional<BenchConfig> ParseAblation(std::vector<std::string> args,
                                         int* exit_code) {
  std::vector<std::string> storage = std::move(args);
  storage.insert(storage.begin(), "bench_ablation_test");
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  return ParseAblationArgs(static_cast<int>(argv.size()), argv.data(),
                           exit_code);
}

TEST(ParseAblationArgsTest, AcceptsQuickAndQueries) {
  int exit_code = -1;
  const auto config = ParseAblation({"--quick", "--queries=500"}, &exit_code);
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->quick);
  EXPECT_EQ(config->num_queries, 500u);
}

TEST(ParseAblationArgsTest, HelpTerminatesWithZero) {
  int exit_code = -1;
  EXPECT_FALSE(ParseAblation({"--help"}, &exit_code).has_value());
  EXPECT_EQ(exit_code, 0);
}

TEST(ParseAblationArgsTest, RejectsFlagsTheAblationsWouldIgnore) {
  // The ablations have a fixed dataset/method matrix and text-only output;
  // accepting these flags and ignoring them would fake a restricted run.
  for (const char* bad :
       {"--datasets=arxiv", "--methods=DL", "--budget-seconds=5",
        "--threads=4", "--format=json", "--out=/tmp/x", "--frobnicate"}) {
    int exit_code = -1;
    EXPECT_FALSE(ParseAblation({bad}, &exit_code).has_value()) << bad;
    EXPECT_EQ(exit_code, 2) << bad;
  }
}

TEST(UsageStringTest, ListsFlagsAndNames) {
  const std::string usage = UsageString(/*allow_experiments=*/true);
  EXPECT_NE(usage.find("--queries="), std::string::npos);
  EXPECT_NE(usage.find("--experiments="), std::string::npos);
  EXPECT_NE(usage.find("table5"), std::string::npos);
  EXPECT_EQ(UsageString(false).find("--experiments="), std::string::npos);
}

}  // namespace
}  // namespace bench
}  // namespace reach
