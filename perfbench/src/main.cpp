// Campaign benchmark program (pas_perfbench).
//
// Runs one workload's manifest through exp::run_campaign at one job as a
// closed loop with one client: the next campaign starts when the previous
// one returns.
// Every call is timed from outside, through public functions only, for
// --seconds seconds (and at least kMinCampaigns campaigns). With --trace 1
// it runs the traced pass instead (traced.hpp).
//
//   pas_perfbench --manifest M --work DIR --seed N --seconds S --trace 0|1
//                 [--outputs csv,jsonl,perrun]
//
// The last stdout line is one JSON object: the measured metrics plus every
// campaign's artifact digest and the paths of the artifacts left in DIR,
// which perfbench/run.py checks against the pinned references.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinCampaigns = 3;
/// Set-up is short and noisy, so each campaign sets up this many times and
/// setup_s is taken over all of them (see kFastShare).
constexpr int kSetupRepeats = 3;
/// point_ms_p90 needs at least ten samples beyond it.
constexpr std::size_t kMinPointSamples = 100;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--manifest") {
      args.manifest = value;
    } else if (key == "--work") {
      args.work = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--outputs") {
      args.jsonl = value.find("jsonl") != std::string::npos;
      args.per_run = value.find("perrun") != std::string::npos;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.manifest.empty() || args.work.empty() || args.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: pas_perfbench --manifest M --work DIR --seed N --seconds S "
        "--trace 0|1 [--outputs csv,jsonl,perrun]");
  }
  return args;
}

pas::io::Json run_untraced(const Args& args) {
  pas::io::JsonObject result;
  result["noise"] = measure_noise();
  const Outputs out = make_outputs(args, "out");
  std::vector<double> setup_s;
  std::vector<CampaignSample> samples;
  pas::io::JsonArray campaigns;
  std::size_t points = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  while (samples.size() < kMinCampaigns || Clock::now() < deadline) {
    std::optional<Setup> setup;
    for (int k = 0; k < kSetupRepeats; ++k) {
      setup.emplace(set_up(args));
      setup_s.push_back(setup->total_s());
    }
    samples.push_back(run_campaign_once(*setup, out, 1));
    const CampaignSample& sample = samples.back();
    campaigns.push_back(
        campaign_record(false, 1, sample.wall_s, sample.digest));
    points = setup->points.size();
  }

  // Every campaign runs the same points in the same order, so a call cut
  // at its progress callbacks gives segments of identical work, and each
  // segment is timed at its least disturbed (see kFastShare). That finds
  // quiet moments at the scale of one point instead of one whole campaign.
  // The campaign time is the sum of the segments' undisturbed times; the
  // per-point times pool each point's fastest samples, at least enough of
  // them for kMinPointSamples.
  const auto column = [&samples](auto member, std::size_t k) {
    std::vector<double> values;
    for (const auto& sample : samples) values.push_back((sample.*member)[k]);
    std::sort(values.begin(), values.end());
    return values;
  };
  double campaign_s = 0.0;
  for (std::size_t k = 0; k < samples.front().segment_s.size(); ++k) {
    campaign_s += undisturbed(column(&CampaignSample::segment_s, k));
  }
  const std::size_t gaps = samples.front().point_ms.size();
  const std::size_t keep = std::min(
      samples.size(),
      std::max({std::size_t{1},
                static_cast<std::size_t>(std::lround(
                    kFastShare * static_cast<double>(samples.size()))),
                (kMinPointSamples + gaps - 1) / std::max<std::size_t>(gaps, 1)}));
  std::vector<double> point_ms;
  for (std::size_t k = 0; k < gaps; ++k) {
    const auto fastest = column(&CampaignSample::point_ms, k);
    point_ms.insert(point_ms.end(), fastest.begin(), fastest.begin() + keep);
  }

  pas::io::JsonObject metrics;
  metrics["reps_per_s"] =
      static_cast<double>(samples.front().replications) / campaign_s;
  metrics["point_ms_p50"] = quantile(point_ms, 0.5);
  metrics["point_ms_p90"] = quantile(point_ms, 0.9);
  metrics["setup_s"] = undisturbed(setup_s);
  metrics["peak_rss_mb"] = peak_rss_mb();
  result["metrics"] = pas::io::Json(std::move(metrics));
  result["point_samples"] = point_ms.size();
  result["points"] = points;
  result["campaigns"] = pas::io::Json(std::move(campaigns));
  result["kept_digest"] = out.digest();
  result["artifacts"] = artifact_paths(out);
  return pas::io::Json(std::move(result));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    std::filesystem::create_directories(args.work);
    const pas::io::Json result =
        args.trace ? perfbench::run_traced(args) : perfbench::run_untraced(args);
    std::cout << result.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    // A throwing campaign is a failed run: report it on the result line so
    // run.py counts its points as failed instead of losing the run.
    pas::io::JsonObject error;
    error["error"] = std::string(e.what());
    std::cout << pas::io::Json(std::move(error)).dump() << std::endl;
    std::cerr << "pas_perfbench: " << e.what() << '\n';
    return 3;
  }
}
