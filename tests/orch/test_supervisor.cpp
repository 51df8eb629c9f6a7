// Supervised multi-process campaigns, end to end against the real pas-exp
// binary: byte-identity with a serial run, SIGKILL crash recovery, rejected
// rows, resume across topologies, and SIGINT interruption.
//
// The tests fork/exec the pas-exp executable (the --worker child mode), so
// they need its path: the PAS_EXP_BIN environment variable if set, else
// the build-time PAS_EXP_BIN_PATH definition CMake injects. If neither
// resolves to an existing file the suite skips rather than fails.
#include "orch/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "exp/runner.hpp"
#include "io/json.hpp"
#include "serve/feed.hpp"
#include "world/paper_setup.hpp"

namespace pas::orch {
namespace {

namespace fs = std::filesystem;

std::string exe_path() {
  if (const char* env = std::getenv("PAS_EXP_BIN")) return env;
#ifdef PAS_EXP_BIN_PATH
  return PAS_EXP_BIN_PATH;
#else
  return {};
#endif
}

exp::Manifest small_manifest() {
  exp::Manifest m;
  m.name = "orch-test";
  m.base = world::paper_scenario();
  m.base.duration_s = 60.0;  // shortened horizon keeps the suite quick
  m.replications = 2;
  m.seed_base = 3;
  m.axes = {
      exp::Axis{.kind = exp::AxisKind::kPolicy, .labels = {"NS", "SAS", "PAS"}},
      exp::Axis{.kind = exp::AxisKind::kMaxSleep, .numbers = {5.0, 15.0}},
  };
  return m;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exe_ = exe_path();
    if (exe_.empty() || !fs::exists(exe_)) {
      GTEST_SKIP() << "pas-exp binary not found (set PAS_EXP_BIN)";
    }
    dir_ = fs::temp_directory_path() /
           ("pas_orch_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);

    manifest_ = small_manifest();
    manifest_path_ = path("manifest.json");
    std::ofstream(manifest_path_) << manifest_.to_json().dump(2) << '\n';

    // Serial single-process reference: the bytes every drive must match.
    exp::CampaignOptions serial;
    serial.jobs = 1;
    serial.out_csv = path("ref.csv");
    serial.per_run_csv = path("ref_runs.csv");
    exp::run_campaign(manifest_, serial);
  }
  void TearDown() override {
    ::unsetenv("PAS_ORCH_TEST_CRASH");
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  DriveOptions options(std::size_t workers, const char* out,
                       const char* per_run = nullptr) {
    DriveOptions o;
    o.exe_path = exe_;
    o.manifest_path = manifest_path_;
    o.out_csv = path(out);
    if (per_run != nullptr) o.per_run_csv = path(per_run);
    o.workers = workers;
    o.verbosity = DriveOptions::Verbosity::kQuiet;
    o.max_lease = 2;  // small leases exercise the work-stealing churn
    return o;
  }

  /// Asserts `out` matches the serial reference.
  void expect_serial_bytes(const char* out, const char* per_run = nullptr) {
    EXPECT_EQ(slurp(path(out)), slurp(path("ref.csv")));
    if (per_run != nullptr) {
      EXPECT_EQ(slurp(path(per_run)), slurp(path("ref_runs.csv")));
    }
    expect_no_part_files();
  }

  /// Workers write no files: nothing named like an older build's
  /// `<out>.w<k>` part file may appear.
  void expect_no_part_files() {
    for (const auto& entry : fs::directory_iterator(dir_)) {
      EXPECT_EQ(entry.path().filename().string().find(".w"),
                std::string::npos)
          << entry.path();
    }
  }

  /// The "point" rows of a telemetry JSONL file (trailers are wall-clock
  /// and schedule-dependent, so identity checks compare only point rows).
  static std::vector<std::string> point_rows(const fs::path& p) {
    std::ifstream in(p);
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const io::Json row = io::Json::parse(line);
      if (row.string_or("kind", "") == "point") rows.push_back(line);
    }
    return rows;
  }

  std::string exe_;
  fs::path dir_;
  exp::Manifest manifest_;
  std::string manifest_path_;
};

TEST_F(SupervisorTest, DriveIsByteIdenticalToSerial) {
  const auto report = drive(manifest_, options(3, "out.csv", "runs.csv"));
  EXPECT_EQ(report.total_points, 6U);
  EXPECT_EQ(report.computed, 6U);
  EXPECT_EQ(report.resumed, 0U);
  EXPECT_EQ(report.crashes, 0U);
  EXPECT_FALSE(report.interrupted);
  expect_serial_bytes("out.csv", "runs.csv");
}

// The acceptance-criteria scenario: a worker is SIGKILLed mid-campaign
// (after reporting the first point of its two-point lease), the rest of its
// lease is reassigned to a respawned worker, and the output is still
// byte-identical to an undisturbed run. One worker, so the
// crash always leaves work queued: with two, the survivor can drain the
// queue before the crash is handled, and then no respawn is needed.
TEST_F(SupervisorTest, SigkilledWorkerLeaseIsReassigned) {
  ::setenv("PAS_ORCH_TEST_CRASH", "0:1", 1);
  const auto report = drive(manifest_, options(1, "out.csv", "runs.csv"));
  EXPECT_GE(report.crashes, 1U);
  EXPECT_GE(report.respawns, 1U);
  EXPECT_EQ(report.computed, 6U);
  expect_serial_bytes("out.csv", "runs.csv");
}

// Worker 0's first point_done reaches the driver with its first payload
// byte overwritten. The driver must reject those rows, doom the worker, and
// requeue that point although the lease table already counts it done. One
// worker, so worker 0 always gets the work: a second one could drain the
// queue while the wrapper is still starting.
TEST_F(SupervisorTest, CorruptRowsAreRejectedAndRecomputed) {
  const std::string wrapper = path("worker.sh");
  std::ofstream(wrapper)
      << "#!/bin/sh\n"
      << "case \" $* \" in\n"
      << "  *\" --worker-id 0 \"*)\n"
      << "    '" << exe_ << "' \"$@\" | sed -u "
      << "'0,/^point_done [0-9]* ../s/^\\(point_done [0-9]* \\)../\\1ff/' ;;\n"
      << "  *) exec '" << exe_ << "' \"$@\" ;;\n"
      << "esac\n";
  fs::permissions(wrapper, fs::perms::owner_all);
  auto o = options(1, "out.csv", "runs.csv");
  o.exe_path = wrapper;
  const auto report = drive(manifest_, o);
  EXPECT_GE(report.crashes, 1U);
  expect_serial_bytes("out.csv", "runs.csv");
  EXPECT_NE(slurp(path("out.csv.flightrec")).find("rejected"),
            std::string::npos);
}

// Resume also composes with a partial *single-process* run: the drive
// imports the rows already in --out and computes only the rest.
TEST_F(SupervisorTest, ResumeClaimsRowsFromSingleProcessOut) {
  exp::CampaignOptions partial;
  partial.jobs = 1;
  partial.shard_index = 0;
  partial.shard_count = 2;
  partial.out_csv = path("out.csv");
  exp::run_campaign(manifest_, partial);

  auto o = options(2, "out.csv");
  o.resume = true;
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.resumed, 3U);
  EXPECT_EQ(report.computed, 3U);
  expect_serial_bytes("out.csv");
}

TEST_F(SupervisorTest, RefusesExistingOutputWithoutResume) {
  std::ofstream(path("out.csv")) << "stale\n";
  EXPECT_THROW((void)drive(manifest_, options(2, "out.csv")),
               std::runtime_error);
}

TEST_F(SupervisorTest, SigintLeavesResumableStateAndResumeCompletes) {
  // Fire SIGINT shortly after the drive starts; whether it lands before or
  // after completion, the follow-up resume must converge on the exact
  // serial bytes (the deterministic end state this test pins down).
  // Outside drive()'s handler window SIGINT must be ignored, or a
  // late-landing signal would kill the test binary instead.
  struct IgnoreSigint {
    struct sigaction old {};
    IgnoreSigint() {
      struct sigaction ign {};
      ign.sa_handler = SIG_IGN;
      sigemptyset(&ign.sa_mask);
      ::sigaction(SIGINT, &ign, &old);
    }
    ~IgnoreSigint() { ::sigaction(SIGINT, &old, nullptr); }
  } guard;
  std::thread interrupter([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ::kill(::getpid(), SIGINT);
  });
  const auto first = drive(manifest_, options(2, "out.csv", "runs.csv"));
  interrupter.join();
  if (first.interrupted) {
    auto o = options(3, "out.csv", "runs.csv");  // resume with different W
    o.resume = true;
    const auto second = drive(manifest_, o);
    EXPECT_FALSE(second.interrupted);
    EXPECT_EQ(second.resumed + second.computed, 6U);
  }
  expect_serial_bytes("out.csv", "runs.csv");
}

// Drive-mode telemetry: workers send each point's telemetry row with its CSV
// rows, and the point rows are byte-identical to a serial campaign's (only
// the trailer — wall-clock orchestrator instruments — may differ).
TEST_F(SupervisorTest, DriveMetricsMergeMatchesSerialPointRows) {
  exp::CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = path("ref2.csv");
  serial.metrics_path = path("ref.jsonl");
  exp::run_campaign(manifest_, serial);

  auto o = options(3, "out.csv");
  o.metrics_path = path("metrics.jsonl");
  serve::CampaignFeed feed;
  o.feed = &feed;
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.computed, 6U);
  expect_serial_bytes("out.csv");

  const auto serial_rows = point_rows(path("ref.jsonl"));
  const auto drive_rows = point_rows(path("metrics.jsonl"));
  ASSERT_EQ(serial_rows.size(), 6U);
  EXPECT_EQ(serial_rows, drive_rows);

  // The drive trailer is the orchestrator's registry snapshot.
  std::string last_line;
  {
    std::ifstream in(path("metrics.jsonl"));
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) last_line = line;
    }
  }
  const io::Json trailer = io::Json::parse(last_line);
  EXPECT_EQ(trailer.string_or("kind", ""), "registry");
  EXPECT_EQ(trailer.string_or("scope", ""), "orchestrator");

  // The drive leaves its last snapshot in the feed: the trailer's four
  // wall-clock instruments.
  const io::Json live = feed.metrics();
  EXPECT_EQ(live.string_or("scope", ""), "orchestrator");
  std::vector<std::string> names;
  for (const auto& [name, value] : live.at("instruments").as_object()) {
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "orch.heartbeat_gap_s", "orch.lease_latency_s",
                       "orch.respawns", "orch.worker_crashes"}));
  EXPECT_EQ(live.at("instruments").dump(), trailer.at("instruments").dump());
}

// Crashed workers' reported points keep their telemetry rows, the
// reassigned points fill the gaps, and the crash dumps the protocol flight
// recorder next to the output. Every worker
// is armed: with only worker 0 armed, worker 1 could drain the queue before
// worker 0 got a lease, and then nothing crashed. Each armed worker dies
// after one point, so there are at most six crashes, within the default
// respawn budget.
TEST_F(SupervisorTest, CrashedDriveKeepsTelemetryAndDumpsFlightRecorder) {
  ::setenv("PAS_ORCH_TEST_CRASH", "*:1", 1);
  auto o = options(2, "out.csv");
  o.metrics_path = path("metrics.jsonl");
  const auto report = drive(manifest_, o);
  EXPECT_GE(report.crashes, 1U);
  expect_serial_bytes("out.csv");

  EXPECT_EQ(point_rows(path("metrics.jsonl")).size(), 6U);

  const std::string flightrec = path("out.csv.flightrec");
  ASSERT_TRUE(fs::exists(flightrec)) << "crash should dump flight recorder";
  const std::string dump = slurp(flightrec);
  EXPECT_NE(dump.find("flight recorder:"), std::string::npos) << dump;
  EXPECT_NE(dump.find("hello"), std::string::npos) << dump;
}

// pas-exp --export renders the --metrics file out of an interrupted
// campaign's row store: the point rows a finished run writes for the points
// the store holds, and no trailer.
TEST_F(SupervisorTest, ExportRendersMetricsOfAnInterruptedStore) {
  exp::CampaignOptions finished;
  finished.jobs = 1;
  finished.out_csv = path("done.csv");
  finished.metrics_path = path("done.jsonl");
  exp::run_campaign(manifest_, finished);

  std::size_t recorded = 0;
  exp::CampaignOptions interrupted;
  interrupted.jobs = 1;
  interrupted.out_csv = path("out.csv");
  interrupted.metrics_path = path("metrics.jsonl");
  interrupted.progress = [&recorded](const exp::PointSummary&, std::size_t,
                                     std::size_t) { ++recorded; };
  interrupted.should_stop = [&recorded] { return recorded >= 4; };
  ASSERT_TRUE(exp::run_campaign(manifest_, interrupted).interrupted);
  ASSERT_FALSE(fs::exists(path("metrics.jsonl")));  // the store holds the rows

  const std::string command = exe_ + " --export --manifest " +
                              manifest_path_ + " --out " + path("out.csv") +
                              " --metrics " + path("metrics.jsonl") +
                              " > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0);
  auto want = point_rows(path("done.jsonl"));
  ASSERT_EQ(want.size(), 6U);
  want.resize(4);
  EXPECT_EQ(point_rows(path("metrics.jsonl")), want);
  std::ifstream in(path("metrics.jsonl"));
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 4U);
}

// A respawn budget of zero turns the first crash into a hard failure when
// no other worker can pick up the queue — instead of a silent infinite
// crash-respawn loop. The aborted drive leaves what a killed single-process
// run leaves, so a single-process resume finishes it.
TEST_F(SupervisorTest, ExhaustedRespawnBudgetAborts) {
  ::setenv("PAS_ORCH_TEST_CRASH", "0:1", 1);
  auto o = options(1, "out.csv", "runs.csv");
  o.max_respawns = 0;
  EXPECT_THROW((void)drive(manifest_, o), std::runtime_error);
  EXPECT_TRUE(fs::exists(path("out.csv.pasrows")));
  EXPECT_TRUE(fs::exists(path("out.csv.flightrec")));
  EXPECT_FALSE(fs::exists(path("out.csv")));
  expect_no_part_files();

  exp::CampaignOptions resume;
  resume.jobs = 1;
  resume.resume = true;
  resume.out_csv = path("out.csv");
  resume.per_run_csv = path("runs.csv");
  const auto report = exp::run_campaign(manifest_, resume);
  EXPECT_EQ(report.skipped, 1U);
  EXPECT_EQ(report.computed, 5U);
  expect_serial_bytes("out.csv", "runs.csv");
}

// pas-exp --drive accepts --json: the mirror comes out of the same export
// as the CSV, so it equals a serial run's.
TEST_F(SupervisorTest, DriveWritesTheJsonMirrorLikeSerial) {
  const std::string common = " --manifest " + manifest_path_ + " --quiet";
  ASSERT_EQ(std::system((exe_ + common + " --jobs 1 --out " +
                         path("s.csv") + " --json " + path("s.jsonl") +
                         " > /dev/null")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((exe_ + common + " --drive 3 --out " +
                         path("d.csv") + " --json " + path("d.jsonl") +
                         " > /dev/null")
                            .c_str()),
            0);
  EXPECT_EQ(slurp(path("d.csv")), slurp(path("ref.csv")));
  EXPECT_EQ(slurp(path("d.jsonl")), slurp(path("s.jsonl")));
  EXPECT_FALSE(slurp(path("s.jsonl")).empty());
  expect_no_part_files();
}

}  // namespace
}  // namespace pas::orch
