// Supervised multi-process campaigns, end to end against the real pas-exp
// binary: byte-identity with a serial run, SIGKILL crash recovery,
// duplicate-row sanitization on resume, and SIGINT interruption.
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

  /// Asserts `out` matches the serial reference and all .w* parts are gone.
  void expect_merged_identical(const char* out,
                               const char* per_run = nullptr) {
    EXPECT_EQ(slurp(path(out)), slurp(path("ref.csv")));
    if (per_run != nullptr) {
      EXPECT_EQ(slurp(path(per_run)), slurp(path("ref_runs.csv")));
    }
    std::size_t parts = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().filename().string().find(".w") != std::string::npos) {
        ++parts;
      }
    }
    EXPECT_EQ(parts, 0U) << "part files should be deleted after the merge";
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
  EXPECT_EQ(report.merged_rows, 6U);
  expect_merged_identical("out.csv", "runs.csv");
}

// The acceptance-criteria scenario: a worker is SIGKILLed mid-campaign
// (after flushing + reporting the first point of its two-point lease), the
// rest of its lease is reassigned to a respawned worker, and the merged
// output is still byte-identical to an undisturbed run. One worker, so the
// crash always leaves work queued: with two, the survivor can drain the
// queue before the crash is handled, and then no respawn is needed.
TEST_F(SupervisorTest, SigkilledWorkerLeaseIsReassigned) {
  ::setenv("PAS_ORCH_TEST_CRASH", "0:1", 1);
  const auto report = drive(manifest_, options(1, "out.csv", "runs.csv"));
  EXPECT_GE(report.crashes, 1U);
  EXPECT_GE(report.respawns, 1U);
  EXPECT_EQ(report.computed, 6U);
  EXPECT_EQ(report.merged_rows, 6U);
  expect_merged_identical("out.csv", "runs.csv");
}

// Crash-race aftermath: two part files both carry a row for the same point
// (a worker wrote its row, died unreported, and the point was reassigned).
// Resume must claim one copy, physically drop the other, and still merge
// to the exact serial bytes.
TEST_F(SupervisorTest, ResumeDropsDuplicateRowsAcrossParts) {
  const std::string w0 = part_path(path("out.csv"), 0);
  const std::string w1 = part_path(path("out.csv"), 1);
  exp::CampaignOptions fabricate;
  fabricate.jobs = 1;
  fabricate.owned_points = {0, 1, 2};
  fabricate.out_csv = w0;
  exp::run_campaign(manifest_, fabricate);
  fabricate.owned_points = {2, 4};  // point 2 duplicated across parts
  fabricate.out_csv = w1;
  exp::run_campaign(manifest_, fabricate);

  auto o = options(2, "out.csv");
  o.resume = true;
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.resumed, 4U);   // 0,1,2 from w0; 4 from w1 (2 dropped)
  EXPECT_EQ(report.computed, 2U);  // 3 and 5
  expect_merged_identical("out.csv");
}

// Resume also composes with an interrupted *single-process* run: rows
// already in --out seed the claim set and the drive computes only the rest.
TEST_F(SupervisorTest, ResumeClaimsRowsFromSingleProcessOut) {
  exp::CampaignOptions partial;
  partial.jobs = 1;
  partial.owned_points = {0, 1, 5};
  partial.out_csv = path("out.csv");
  exp::run_campaign(manifest_, partial);

  auto o = options(2, "out.csv");
  o.resume = true;
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.resumed, 3U);
  EXPECT_EQ(report.computed, 3U);
  expect_merged_identical("out.csv");
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
  expect_merged_identical("out.csv", "runs.csv");
}

// Drive-mode telemetry: workers write metrics part files, the driver merges
// them, and the merged point rows are byte-identical to a serial campaign's
// (only the trailer — wall-clock orchestrator instruments — may differ).
TEST_F(SupervisorTest, DriveMetricsMergeMatchesSerialPointRows) {
  exp::CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = path("ref2.csv");
  serial.metrics_path = path("ref.jsonl");
  exp::run_campaign(manifest_, serial);

  auto o = options(3, "out.csv");
  o.metrics_path = path("metrics.jsonl");
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.computed, 6U);
  expect_merged_identical("out.csv");  // also: no .w* metrics parts left

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
}

// A crashed worker's telemetry part survives (rows are flushed before
// point_done, like the CSV), the reassigned points fill the gaps, and the
// crash dumps the protocol flight recorder next to the output. Every worker
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
  expect_merged_identical("out.csv");

  EXPECT_EQ(point_rows(path("metrics.jsonl")).size(), 6U);

  const std::string flightrec = path("out.csv.flightrec");
  ASSERT_TRUE(fs::exists(flightrec)) << "crash should dump flight recorder";
  const std::string dump = slurp(flightrec);
  EXPECT_NE(dump.find("flight recorder:"), std::string::npos) << dump;
  EXPECT_NE(dump.find("hello"), std::string::npos) << dump;
}

// A respawn budget of zero turns the first crash into a hard failure when
// no other worker can pick up the queue — instead of a silent infinite
// crash-respawn loop.
TEST_F(SupervisorTest, ExhaustedRespawnBudgetAborts) {
  ::setenv("PAS_ORCH_TEST_CRASH", "0:1", 1);
  auto o = options(1, "out.csv");
  o.max_respawns = 0;
  EXPECT_THROW((void)drive(manifest_, o), std::runtime_error);
}

}  // namespace
}  // namespace pas::orch
