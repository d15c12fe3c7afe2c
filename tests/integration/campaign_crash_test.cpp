// Crash drill on the production path: a real `propane campaign run`
// process (the CLI, located via PROPANE_CLI_PATH) is SIGKILLed while it
// journals, and `propane campaign resume` on the same journal must execute
// exactly the runs the killed process left unjournaled and end with the
// permeability CSV of an uninterrupted run, byte for byte.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arrestment/model.hpp"
#include "store/resume.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

/// Starts the CLI with `args`, its stdout redirected to `stdout_path`.
/// Everything the child touches is prepared before fork().
pid_t spawn_cli(const std::vector<std::string>& args,
                const fs::path& stdout_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(PROPANE_CLI_PATH));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const std::string out = stdout_path.string();
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int fd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::close(fd);
    }
    ::execv(PROPANE_CLI_PATH, argv.data());
    ::_exit(127);
  }
  return pid;
}

/// Runs the CLI to completion; returns its exit code (-1 if it did not
/// exit normally).
int run_cli(const std::vector<std::string>& args, const fs::path& stdout_path) {
  const pid_t pid = spawn_cli(args, stdout_path);
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::string> full_run_args(const char* verb, const fs::path& dir) {
  return {"campaign", verb,           "--journal",      dir.string(),
          "--scale",  "full",         "--no-telemetry", "--no-progress"};
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);
  std::ostringstream out;
  write_permeability_csv_from_journal(out, dir, model, binding);
  return out.str();
}

/// Completed-run count of a journal a live process may be writing: a shard
/// whose header is still being written reads as no progress yet.
std::size_t completed_so_far(const fs::path& dir) {
  try {
    return scan_campaign_dir(dir).completed_count;
  } catch (const std::exception&) {
    return 0;
  }
}

TEST(CampaignCrash, SigkilledRunResumesToTheUninterruptedCsv) {
  const fs::path scratch = fresh_dir("crash_drill");
  fs::create_directories(scratch);
  const fs::path reference = scratch / "reference";
  const fs::path killed = scratch / "killed";

  ASSERT_EQ(run_cli(full_run_args("run", reference), scratch / "reference.out"),
            0);

  // Kill the second run as soon as its journal holds a record.
  const pid_t child =
      spawn_cli(full_run_args("run", killed), scratch / "killed.out");
  ASSERT_GT(child, 0);
  bool exited_first = false;
  while (completed_so_far(killed) == 0) {
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) {
      exited_first = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(exited_first)
      << "the campaign exited before its journal held a record";
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "the campaign finished before the kill landed";

  const CampaignDirState at_kill = scan_campaign_dir(killed);
  ASSERT_FALSE(at_kill.fresh);
  const std::size_t total = at_kill.manifest.total_runs();
  EXPECT_GT(at_kill.completed_count, 0u);
  EXPECT_LT(at_kill.completed_count, total)
      << "the kill came too late to interrupt the campaign";

  const fs::path resume_out = scratch / "resume.out";
  ASSERT_EQ(run_cli(full_run_args("resume", killed), resume_out), 0);
  std::ifstream in(resume_out);
  std::size_t executed = 0, replayed = 0, journaled = 0;
  bool summary_seen = false;
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(": ");
    if (line.rfind("journal ", 0) != 0 || colon == std::string::npos) continue;
    summary_seen =
        std::sscanf(line.c_str() + colon + 2,
                    "%zu run(s) executed, %zu replayed from baseline, %zu "
                    "already journaled",
                    &executed, &replayed, &journaled) == 3;
  }
  ASSERT_TRUE(summary_seen) << "no run summary in " << resume_out;
  EXPECT_EQ(journaled, at_kill.completed_count);
  EXPECT_EQ(executed, total - at_kill.completed_count);
  EXPECT_EQ(replayed, 0u);

  EXPECT_EQ(journal_csv(killed), journal_csv(reference));
}

}  // namespace
}  // namespace propane::store
