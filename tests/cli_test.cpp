// Black-box checks of hsd_cli's argument handling: an option a command
// does not take must fail fast with a non-zero exit that names it, before
// any benchmark is built — a retired or misspelled serving knob must never
// be silently ignored.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr, interleaved
};

CliRun run_cli(const std::string& args) {
  const std::string cmd = std::string(HSD_CLI_PATH) + " " + args + " 2>&1";
  CliRun r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

TEST(Cli, ServeRejectsRetiredBatchingWindowFlag) {
  const CliRun r = run_cli("serve iccad16-3 --requests 8 --max-delay-us 200");
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("--max-delay-us"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("building"), std::string::npos)
      << "the option must be rejected before any work starts:\n" << r.output;
}

TEST(Cli, EveryCommandNamesItsUnknownOption) {
  for (const std::string cmd :
       {"build iccad16-3 --out /dev/null", "info x.hsdl", "run iccad16-3",
        "pm iccad16-3", "serve iccad16-3", "shard-server iccad16-3 --listen uds:/tmp/x"}) {
    const CliRun r = run_cli(cmd + " --max-bacth 4");
    EXPECT_EQ(r.exit_code, 2) << cmd << "\n" << r.output;
    EXPECT_NE(r.output.find("unknown option --max-bacth"), std::string::npos)
        << cmd << "\n" << r.output;
  }
}

TEST(Cli, ObservabilityTapsAreAcceptedEverywhere) {
  // info on a missing file fails at load time (exit 1), not at parsing.
  const CliRun r = run_cli("info /nonexistent.hsdl --trace /dev/null --metrics /dev/null");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output.find("unknown option"), std::string::npos) << r.output;
}

}  // namespace
