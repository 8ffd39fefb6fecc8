// flags::Parser (common/flags.h), the one command-line parser of the tools
// and benches: each rejection class is a usage error whose message names
// the argument, --help lists every declared flag with its default, and a
// valid argv sets exactly the targets it names.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"

namespace davinci::flags {
namespace {

// One flag of every kind the tools declare, at its default.
struct Table {
  bool verify = false;
  std::string json;
  std::string policy = "block";
  std::size_t queue = 64;
  int devices = 1;
  std::int64_t deadline = 0;
  double tol = 0.05;
  std::map<std::string, double> per_metric;
  std::vector<std::string> files;
  Parser cli{"prog", "<file> [<file>]"};

  Table() {
    cli.flag("verify", &verify, "check stores")
        .flag("json", &json, "write JSON here")
        .flag("policy", &policy, "overload policy", {"block", "reject", "shed"})
        .flag("queue", &queue, "queue depth")
        .flag("devices", &devices, "device count")
        .flag("deadline", &deadline, "deadline budget")
        .flag("tol", &tol, "tolerance")
        .flag("tol", &per_metric, "tolerance of one metric")
        .positional(&files, 1, 2);
  }

  Status parse(std::vector<std::string> args) {
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return cli.parse(static_cast<int>(argv.size()), argv.data());
  }
};

// The usage row whose flag column is `left`, or "" when there is none.
std::string row(const std::string& usage, const std::string& left) {
  const std::size_t at = usage.find("  " + left + " ");
  if (at == std::string::npos) return "";
  return usage.substr(at, usage.find('\n', at) - at);
}

TEST(Flags, EveryRejectionIsAUsageErrorNamingTheArgument) {
  for (const std::string arg :
       {"--no-such-flag", "--verify=1", "--json", "--queue=",
        "--deadline=12abc", "--deadline=9223372036854775808", "--queue=-1",
        "--devices=3000000000", "--tol=nan", "--tol=inf", "--policy=drop",
        "--tol:=1", "--tol:cycles", "-v"}) {
    Table t;
    EXPECT_EQ(t.parse({"a.json", arg}), Status::kUsage) << arg;
    EXPECT_NE(t.cli.error().find(arg), std::string::npos)
        << arg << " -> " << t.cli.error();
  }
}

TEST(Flags, AFlagOrKeyedEntryGivenTwiceIsAUsageError) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"a", "--json=x", "--json=y"},
        std::vector<std::string>{"a", "--verify", "--verify"},
        std::vector<std::string>{"a", "--tol:cycles=0", "--tol:cycles=1"}}) {
    Table t;
    EXPECT_EQ(t.parse(args), Status::kUsage) << args.back();
    EXPECT_NE(t.cli.error().find(args.back()), std::string::npos)
        << t.cli.error();
  }
}

TEST(Flags, AWrongPositionalCountIsAUsageError) {
  Table none;
  EXPECT_EQ(none.parse({"--verify"}), Status::kUsage);
  EXPECT_NE(none.cli.error().find("<file>"), std::string::npos)
      << none.cli.error();
  Table three;
  EXPECT_EQ(three.parse({"a", "b", "extra.json"}), Status::kUsage);
  EXPECT_NE(three.cli.error().find("extra.json"), std::string::npos)
      << three.cli.error();
}

TEST(Flags, HelpListsEveryDeclaredFlagWithItsDefault) {
  Table t;
  EXPECT_EQ(t.parse({"--help"}), Status::kHelp);
  const std::string usage = t.cli.usage();
  EXPECT_EQ(usage.rfind("usage: prog <file> [<file>] [flags]\n", 0), 0u)
      << usage;
  const std::map<std::string, std::string> defaults = {
      {"--verify", "off"},     {"--json=STR", "none"},
      {"--policy=block|reject|shed", "block"},
      {"--queue=N", "64"},     {"--devices=N", "1"},
      {"--deadline=N", "0"},   {"--tol=X", "0.05"},
      {"--tol:<key>=X", "none"}};
  for (const auto& [left, shown] : defaults) {
    EXPECT_NE(row(usage, left).find("(default: " + shown + ")"),
              std::string::npos)
        << left << " in\n" << usage;
  }
  EXPECT_NE(row(usage, "--help"), "") << usage;
}

TEST(Flags, AValidArgvSetsItsTargetsAndLeavesTheRestAtTheirDefaults) {
  Table t;
  ASSERT_EQ(t.parse({"a.json", "--verify", "--queue=8", "--policy=shed",
                     "--deadline=-5", "b.json"}),
            Status::kOk)
      << t.cli.error();
  EXPECT_TRUE(t.verify);
  EXPECT_EQ(t.queue, 8u);
  EXPECT_EQ(t.policy, "shed");
  EXPECT_EQ(t.deadline, -5);
  EXPECT_EQ(t.files, (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_EQ(t.json, "");
  EXPECT_EQ(t.devices, 1);
  EXPECT_EQ(t.tol, 0.05);
  EXPECT_TRUE(t.per_metric.empty());
}

TEST(Flags, KeyedEntriesFillTheMap) {
  Table t;
  ASSERT_EQ(t.parse({"a", "--tol:cycles=0", "--tol:horizon=0.1", "--tol=1e-3"}),
            Status::kOk)
      << t.cli.error();
  EXPECT_EQ(t.per_metric,
            (std::map<std::string, double>{{"cycles", 0.0}, {"horizon", 0.1}}));
  EXPECT_EQ(t.tol, 1e-3);
}

TEST(Flags, ReportAndFailReturnTheExitCode) {
  Table help;
  ASSERT_EQ(help.parse({"--help"}), Status::kHelp);
  EXPECT_EQ(help.cli.report(), 0);
  Table bad;
  ASSERT_EQ(bad.parse({"a", "--nope"}), Status::kUsage);
  EXPECT_EQ(bad.cli.report(), 2);
  EXPECT_EQ(bad.cli.fail("a rule between flags"), 2);
}

}  // namespace
}  // namespace davinci::flags
