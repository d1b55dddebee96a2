// The three command-line tools, run as built. Each case spawns the real
// binary, whose path CMake passes as a macro (ASF_RUN_PATH, ...), and
// checks its exact exit status under RunTool's contract (common/flags.h):
// 0 for a run, 1 for a rejected config, 2 for an unknown flag. A failing
// case must also have printed its reason to stderr. Then the outputs a
// consumer reads: the Chrome trace asf_run writes, the blocks of
// asf_run --bench-json, and a spill directory left empty.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"

extern char** environ;

namespace asf {
namespace {

struct Outcome {
  int status = -1;  ///< exit status, or 128 + the signal that ended it
  std::string out;
  std::string err;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary) << bytes;
}

/// The top-level keys of the JSON object at text[begin] == '{', and the
/// index of its closing brace (npos if it never closes). Enough JSON for
/// the documents under test, whose strings hold no escaped quotes.
struct ObjectKeys {
  std::set<std::string> keys;
  std::size_t end = std::string::npos;
};

ObjectKeys ScanObject(const std::string& text, std::size_t begin) {
  ObjectKeys object;
  int depth = 0;
  bool key_next = false;
  for (std::size_t i = begin; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      const std::size_t close = text.find('"', i + 1);
      if (close == std::string::npos) break;
      if (depth == 1 && key_next) {
        object.keys.insert(text.substr(i + 1, close - i - 1));
      }
      key_next = false;
      i = close;
    } else if (c == '{' || c == '[') {
      key_next = ++depth == 1;
    } else if (c == '}' || c == ']') {
      if (--depth == 0) {
        object.end = i;
        break;
      }
    } else if (c == ',') {
      key_next = depth == 1;
    }
  }
  return object;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string pattern = ::testing::TempDir() + "asf_cli_XXXXXX";
    ASSERT_NE(mkdtemp(pattern.data()), nullptr) << std::strerror(errno);
    dir_ = pattern;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A path in this test's scratch directory.
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// Runs argv (argv[0] is a tool's path) to completion.
  Outcome Run(const std::vector<std::string>& argv) const {
    const std::string out = Path("stdout");
    const std::string err = Path("stderr");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    Outcome outcome;
    pid_t pid = 0;
    const int spawned =
        posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
      outcome.err = argv[0] + ": " + std::strerror(spawned);
      return outcome;
    }
    int wait_status = 0;
    while (waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
    }
    outcome.status = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status)
                                            : 128 + WTERMSIG(wait_status);
    outcome.out = ReadFile(out);
    outcome.err = ReadFile(err);
    return outcome;
  }

  /// Runs argv and checks its exit status; a failure must say why, with
  /// `reason` in its stderr.
  void ExpectStatus(int want, const std::vector<std::string>& argv,
                    const std::string& reason = "") const {
    std::string command;
    for (const std::string& arg : argv) command += " " + arg;
    SCOPED_TRACE(command);
    const Outcome outcome = Run(argv);
    EXPECT_EQ(outcome.status, want) << outcome.err;
    if (want != 0) {
      EXPECT_NE(outcome.err, "");
      EXPECT_NE(outcome.err.find(reason), std::string::npos) << outcome.err;
    }
  }

  std::string dir_;
};

/// Each malformed input fails cleanly with its exact status: 1 for a
/// rejected config, 2 for an unknown flag. An abort (134) fails the case,
/// as does a hang, through the test's ctest timeout.
TEST_F(CliTest, MalformedInputFailsWithItsStatus) {
  // Stream counts far past kMaxStreams, on the command line and in a trace
  // CSV header (where 2^32 would wrap StreamId): each is rejected before
  // anything is sized by it. The header's one-value initial line fails
  // too, so even a reader that took the count sizes nothing by it.
  // stream_test and trace_test hold the counts just past the limit.
  WriteFile(Path("wide.csv"), "num_streams,4294967296\ninitial,0\n");

  const struct {
    int status;
    std::vector<std::string> argv;
    std::string reason;  ///< a fragment of this rejection's stderr
  } kCases[] = {
      {1,
       {ASF_RUN_PATH, "--net=loss:1.5", "--duration=50", "--streams=10"},
       "net loss probability"},
      {1,
       {ASF_RUN_PATH, "--net=partition:5,3", "--duration=50", "--streams=10"},
       "net partition boundaries"},
      {2,
       {ASF_RUN_PATH, "--shards=4", "--duration=50", "--streams=10"},
       "unknown flag --shards"},
      {2,
       {ASF_RUN_PATH, "--protocol=ft-nrp", "--eps_plus=0.3", "--duration=50",
        "--streams=10"},
       "unknown flag --eps_plus"},
      {1,
       {ASF_RUN_PATH, "--duration=nan", "--streams=10"},
       "duration must be finite"},
      {1,
       {ASF_RUN_PATH, "--churn", "--duration=inf", "--streams=10"},
       "churn expansion needs a finite duration"},
      {1,
       {ASF_RUN_PATH, "--churn", "--oracle-interval=-5", "--duration=50",
        "--streams=10"},
       "oracle sample_interval"},
      {2,
       {ASF_SWEEP_PATH, "--protcol=rtp", "--values=0,0.1", "--streams=50",
        "--duration=100"},
       "unknown flag --protcol"},
      {1,
       {ASF_SWEEP_PATH, "--streams=-5", "--values=0,0.1", "--duration=100"},
       "--streams must be positive"},
      {1,
       {ASF_RUN_PATH, "--protocol=rtp", "--query=knn", "--k=5", "--r=-1",
        "--streams=50", "--duration=300", "--oracle-interval=10"},
       "--r must be >= 0"},
      {1,
       {ASF_RUN_PATH, "--sigma=nan", "--streams=10", "--duration=50",
        "--oracle-interval=5"},
       "sigma must be finite"},
      {1,
       {ASF_RUN_PATH, "--range=abc:600", "--streams=10", "--duration=50"},
       "--range expects a number"},
      {1,
       {ASF_SWEEP_PATH, "--values=0.1,O.2", "--streams=50", "--duration=100"},
       "--values expects a number"},
      {2,
       {ASF_RUN_PATH, "--metrics-every=100", "--streams=10", "--duration=50"},
       "unknown flag --metrics-every"},
      {2,
       {ASF_TRACEGEN_PATH, "--out=" + Path("smoke.csv"), "--subnet=5"},
       "unknown flag --subnet"},
      {1,
       {ASF_RUN_PATH, "--trace=" + Path("epoch.trace"), "--trace-cats=epoch",
        "--streams=10", "--duration=50"},
       "unknown trace category: epoch"},
      {1,
       {ASF_RUN_PATH, "--streams=9223372036854775807", "--duration=50"},
       "num_streams must lie in"},
      {1,
       {ASF_SWEEP_PATH, "--param=streams", "--values=10,999999999999999",
        "--duration=50"},
       "num_streams must lie in"},
      {1,
       {ASF_RUN_PATH, "--replay=" + Path("wide.csv"), "--duration=50"},
       "num_streams must lie in"},
      {1,
       {ASF_TRACEGEN_PATH, "--out=" + Path("wide_synth.csv"),
        "--subnets=9223372036854775807"},
       "num_subnets must lie in"},
      // A record count past kMaxTraceRecords, rejected before the
      // generator reserves it, and a NaN skew: both used to abort with
      // exit 134.
      {1,
       {ASF_TRACEGEN_PATH, "--out=" + Path("long_synth.csv"),
        "--connections=9223372036854775807"},
       "total_connections must be at most"},
      {1,
       {ASF_TRACEGEN_PATH, "--out=" + Path("nan_synth.csv"), "--zipf=nan",
        "--connections=1000"},
       "zipf_s"},
      // An arrival count past kMaxChurnArrivals (about 10^10 here),
      // rejected before the schedule is drawn, and a sweep grid past its
      // run limit, rejected before it is reserved: both used to abort.
      {1,
       {ASF_RUN_PATH, "--churn", "--churn-rate=1e7", "--duration=1000",
        "--streams=10"},
       "1048576"},
      {1,
       {ASF_SWEEP_PATH, "--values=0", "--seeds=9223372036854775807"},
       "--seeds"},
  };
  for (const auto& c : kCases) ExpectStatus(c.status, c.argv, c.reason);

  // Non-finite synthesis parameters fail by name, before the generator
  // draws a record. They used to fail only after the whole trace was
  // drawn and sorted, with a message that named no parameter.
  const struct {
    std::string flag;
    std::string name;
  } kSynthCases[] = {{"--bytes-sigma=nan", "bytes_log_sigma"},
                     {"--subnet-sigma=inf", "subnet_sigma"},
                     {"--bytes-mu=inf", "bytes_log_mu"}};
  for (const auto& c : kSynthCases) {
    SCOPED_TRACE(c.flag);
    const Outcome outcome =
        Run({ASF_TRACEGEN_PATH, "--out=" + Path("nonfinite.csv"), c.flag});
    EXPECT_EQ(outcome.status, 1) << outcome.err;
    EXPECT_NE(outcome.err.find(c.name), std::string::npos) << outcome.err;
  }
}

/// Delayed delivery, fault injection and spilling through tiny buffer
/// pools (the most eviction and write-back traffic) run to completion, and
/// every spilling run removes its page file. Under a sanitized build these
/// are the memory checks of those paths.
TEST_F(CliTest, DelayedFaultyAndSpillingRunsExitCleanly) {
  const std::string spill = Path("spill");
  ASSERT_TRUE(std::filesystem::create_directory(spill));
  const std::vector<std::string> kRuns[] = {
      {ASF_RUN_PATH, "--protocol=ft-nrp", "--streams=300", "--duration=600",
       "--eps-plus=0.2", "--eps-minus=0.2", "--oracle-interval=60",
       "--net=batch:15"},
      {ASF_RUN_PATH, "--protocol=rtp", "--query=knn", "--k=10", "--r=5",
       "--streams=200", "--duration=500", "--oracle-interval=60",
       "--net=latency:8:4"},
      {ASF_RUN_PATH, "--protocol=ft-nrp", "--streams=300", "--duration=600",
       "--eps-plus=0.2", "--eps-minus=0.2", "--oracle-interval=60",
       "--net=batch:10+loss:0.1:3+partition:150.5,300.5+reorder:2"},
      {ASF_RUN_PATH, "--protocol=zt-nrp", "--streams=200", "--duration=500",
       "--oracle-interval=60", "--net=latency:5:3+loss:0.2+rto:4:32+comp:5"},
      {ASF_RUN_PATH, "--churn", "--churn-rate=0.2", "--churn-lifetime=120",
       "--streams=300", "--duration=800", "--seed=5", "--spill=" + spill,
       "--buffer-pages=2"},
      {ASF_RUN_PATH, "--churn", "--churn-rate=0.2", "--churn-lifetime=120",
       "--streams=300", "--duration=800", "--seed=5", "--spill=" + spill,
       "--buffer-pages=3", "--replacement=fifo"},
  };
  for (const std::vector<std::string>& argv : kRuns) ExpectStatus(0, argv);
  EXPECT_TRUE(std::filesystem::is_empty(spill));
}

/// One observed run: its trace file is a Chrome trace_event document in
/// which every event carries ts, ph and name, one per record the
/// epilogue counts, and its --bench-json carries the metrics and profile
/// blocks.
TEST_F(CliTest, ObservedRunWritesCompleteTraceAndBenchJson) {
  if (!ASF_OBS_TRACE_COMPILED) GTEST_SKIP() << "built with ASF_OBS_TRACE=OFF";
  const Outcome run =
      Run({ASF_RUN_PATH, "--protocol=ft-nrp", "--streams=500",
           "--duration=900", "--eps-plus=0.2", "--eps-minus=0.2",
           "--net=batch:10", "--oracle-interval=120",
           "--trace=" + Path("trace.json"), "--profile",
           "--bench-json=" + Path("run.json")});
  ASSERT_EQ(run.status, 0) << run.err;
  const ObjectKeys bench = ScanObject(ReadFile(Path("run.json")), 0);
  ASSERT_NE(bench.end, std::string::npos);
  std::set<std::string> blocks = bench.keys;
  blocks.erase("bench");
  blocks.erase("provenance");
  EXPECT_EQ(blocks, (std::set<std::string>{"metrics", "profile"}));

  std::size_t records = 0;
  const auto line = run.out.find("obs trace: ");
  ASSERT_NE(line, std::string::npos) << run.out;
  ASSERT_EQ(std::sscanf(run.out.c_str() + line, "obs trace: %zu records",
                        &records),
            1);
  EXPECT_GT(records, 0u);

  const std::string chrome = ReadFile(Path("trace.json"));
  ASSERT_EQ(ScanObject(chrome, 0).keys, std::set<std::string>{"traceEvents"});
  std::size_t events = 0;
  std::size_t at = chrome.find('[', chrome.find("\"traceEvents\"")) + 1;
  for (;; ++events) {
    at = chrome.find_first_not_of(", \n", at);
    if (at == std::string::npos || chrome[at] != '{') break;
    const ObjectKeys event = ScanObject(chrome, at);
    ASSERT_NE(event.end, std::string::npos) << "event " << events;
    for (const char* key : {"ts", "ph", "name"}) {
      EXPECT_EQ(event.keys.count(key), 1u) << "event " << events << ": " << key;
    }
    at = event.end + 1;
  }
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(chrome[at], ']');
  EXPECT_EQ(events, records + 1);  // the thread-name metadata event first
}

}  // namespace
}  // namespace asf
