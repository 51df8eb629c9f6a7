// Golden campaign artifacts.
//
// Every example manifest is run once through exp::run_campaign at two
// threads, writing the CSV, the JSON-lines mirror, the per-run CSV and the
// --metrics telemetry file, and each file's bytes are pinned by digest. The
// artifact bytes are the campaign stack's contract: thread count, sharding,
// resume and the aggregation pipeline may change how rows reach the disk,
// never what lands there. The values were recorded before the in-memory
// aggregator was retired in favour of the row store, so they are the
// committed truth both pipelines agreed on.
//
// The metrics digest covers only the "kind":"point" rows: the trailing
// registry snapshot is wall-clock data.
// A second digest covers the same rows without their "kernel" object. The
// kernel counters measure how the simulator got to the result (events
// scheduled, dispatched, cancelled, queue shape), so a change to the event
// structure moves them while every simulated outcome stays put; the
// kernel-free digest pins those outcomes through such a change.
//
// If a deliberate change to the simulation or the output format ever
// invalidates these values, re-record them (the failure message prints the
// new digest) and say so in the commit message.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/runner.hpp"

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

/// FNV-1a 64 over the raw file bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The telemetry file's point rows, newline-terminated, trailers dropped.
std::string point_rows(const std::string& metrics) {
  std::istringstream in(metrics);
  std::string out, line;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"point\"") != std::string::npos) {
      out += line;
      out.push_back('\n');
    }
  }
  return out;
}

/// `rows` with each row's flat "kernel":{...} object and its comma removed.
std::string without_kernel(const std::string& rows) {
  static const std::string kKey = "\"kernel\":{";
  std::string out;
  std::size_t from = 0;
  for (std::size_t at = rows.find(kKey); at != std::string::npos;
       at = rows.find(kKey, from)) {
    out.append(rows, from, at - from);
    from = rows.find('}', at) + 1;
    if (from < rows.size() && rows[from] == ',') ++from;
  }
  out.append(rows, from, std::string::npos);
  return out;
}

struct Golden {
  const char* manifest;
  std::uint64_t csv;
  std::uint64_t jsonl;
  std::uint64_t per_run;
  std::uint64_t metric_points;
  std::uint64_t metric_points_no_kernel;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.manifest; }

class GoldenArtifacts : public ::testing::TestWithParam<Golden> {
 protected:
  void SetUp() override {
    std::string name = GetParam().manifest;
    name.resize(name.find('.'));
    dir_ = fs::temp_directory_path() /
           ("pas_golden_artifacts_" + std::to_string(::getpid()) + "_" + name);
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_P(GoldenArtifacts, BytesMatchPinnedDigests) {
  const Golden& g = GetParam();
  const std::string here = __FILE__;
  const std::string root = here.substr(0, here.find("tests/integration/"));
  const Manifest manifest =
      Manifest::load(root + "examples/" + std::string(g.manifest));

  CampaignOptions options;
  options.jobs = 2;
  options.out_csv = (dir_ / "out.csv").string();
  options.out_json = (dir_ / "out.jsonl").string();
  options.per_run_csv = (dir_ / "runs.csv").string();
  options.metrics_path = (dir_ / "metrics.jsonl").string();
  const auto report = run_campaign(manifest, options);
  ASSERT_EQ(report.computed, manifest.point_count());

  const std::uint64_t csv = fnv1a(slurp(options.out_csv));
  const std::uint64_t jsonl = fnv1a(slurp(options.out_json));
  const std::uint64_t per_run = fnv1a(slurp(options.per_run_csv));
  const std::string rows = point_rows(slurp(options.metrics_path));
  ASSERT_NE(rows.find("\"kernel\":{"), std::string::npos);
  const std::uint64_t metric_points = fnv1a(rows);
  const std::uint64_t metric_points_no_kernel = fnv1a(without_kernel(rows));
  EXPECT_EQ(csv, g.csv) << g.manifest << " CSV digest is now " << csv;
  EXPECT_EQ(jsonl, g.jsonl) << g.manifest << " JSONL digest is now " << jsonl;
  EXPECT_EQ(per_run, g.per_run)
      << g.manifest << " per-run digest is now " << per_run;
  EXPECT_EQ(metric_points, g.metric_points)
      << g.manifest << " metrics point-row digest is now " << metric_points;
  EXPECT_EQ(metric_points_no_kernel, g.metric_points_no_kernel)
      << g.manifest << " kernel-free metrics digest is now "
      << metric_points_no_kernel;
}

INSTANTIATE_TEST_SUITE_P(
    Examples, GoldenArtifacts,
    ::testing::Values(
        Golden{"campaign.json", 17042971334073829149ULL,
               16397852881255652736ULL, 10012525492705850481ULL,
               12915812278955992231ULL, 13857840388211272334ULL},
        Golden{"multihop_collection.json", 7006999060155547865ULL,
               4349560563103632640ULL, 13919728368572123161ULL,
               14641383949834947708ULL, 4695342946260065068ULL},
        Golden{"policy_comparison.json", 8822445188169476681ULL,
               676889675622163775ULL, 11049284904442039818ULL,
               7643724231371699699ULL, 9742101021094334608ULL},
        Golden{"replication_study.json", 7275074175305668456ULL,
               19123452673300734ULL, 4563878389816656611ULL,
               14566642591180527117ULL, 1008886837756498478ULL}),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = info.param.manifest;
      name.resize(name.find('.'));
      return name;
    });

}  // namespace
}  // namespace pas::exp
