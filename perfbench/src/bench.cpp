#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>

#include "exp/row_store.hpp"
#include "sim/rng.hpp"
#include "world/scenario.hpp"
#include "world/workspace.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Keeps the calibration loop's result observable so it is not optimised out.
volatile std::uint32_t g_calibration_sink = 0;

std::string fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "missing";
  std::uint64_t h = 0xCBF29CE484222325ULL;
  char buf[1 << 16];
  while (in) {
    in.read(buf, sizeof buf);
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001B3ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace

std::vector<std::string> Outputs::files() const {
  std::vector<std::string> out;
  for (const auto* path : {&csv, &jsonl, &per_run}) {
    if (!path->empty()) out.push_back(*path);
  }
  return out;
}

void Outputs::remove() const {
  for (const auto& path : files()) fs::remove(path);
  fs::remove(pas::exp::RowStore::path_for(csv));
}

std::string Outputs::digest() const {
  std::string out;
  for (const auto& path : files()) {
    if (!out.empty()) out += ':';
    out += fnv1a_file(path);
  }
  return out;
}

std::uint64_t Outputs::bytes() const {
  std::uint64_t total = 0;
  for (const auto& path : files()) total += fs::file_size(path);
  return total;
}

void Outputs::apply(pas::exp::CampaignOptions& options) const {
  options.out_csv = csv;
  options.out_json = jsonl;
  options.per_run_csv = per_run;
}

Outputs make_outputs(const Args& args, const std::string& stem) {
  const std::string base = (fs::path(args.work) / stem).string();
  Outputs out;
  out.csv = base + ".csv";
  if (args.jsonl) out.jsonl = base + ".jsonl";
  if (args.per_run) out.per_run = base + ".runs.csv";
  return out;
}

Setup set_up(const Args& args) {
  Setup s;
  const auto t0 = Clock::now();
  s.manifest = pas::exp::Manifest::load(args.manifest);
  const auto t1 = Clock::now();
  s.manifest.seed_base = args.seed;
  s.manifest.validate();
  s.points = pas::exp::expand_grid(s.manifest);
  const auto t2 = Clock::now();
  std::vector<const pas::world::ScenarioConfig*> distinct;
  for (const auto& point : s.points) {
    const bool seen = std::any_of(
        distinct.begin(), distinct.end(), [&point](const auto* config) {
          return pas::world::same_stimulus(*config, point.config);
        });
    if (!seen) distinct.push_back(&point.config);
  }
  for (const auto* config : distinct) {
    const auto model = pas::world::make_stimulus(*config);
    if (model == nullptr) throw std::runtime_error("set_up: no stimulus model");
  }
  const auto t3 = Clock::now();
  s.load_s = seconds_between(t0, t1);
  s.expand_s = seconds_between(t1, t2);
  s.model_s = seconds_between(t2, t3);
  return s;
}

CampaignSample run_campaign_once(const Setup& setup, const Outputs& out,
                                 std::size_t jobs) {
  out.remove();
  std::vector<Clock::time_point> stamps;
  stamps.reserve(setup.points.size());
  pas::exp::CampaignOptions options;
  options.jobs = jobs;
  out.apply(options);
  options.progress = [&stamps](const pas::exp::PointSummary&, std::size_t,
                               std::size_t) {
    stamps.push_back(Clock::now());
  };
  const auto t0 = Clock::now();
  const auto report = pas::exp::run_campaign(setup.manifest, options);
  const auto t1 = Clock::now();

  CampaignSample sample;
  sample.wall_s = seconds_between(t0, t1);
  sample.replications = report.computed * report.replications;
  auto previous = t0;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    sample.segment_s.push_back(seconds_between(previous, stamps[i]));
    if (i > 0) sample.point_ms.push_back(sample.segment_s.back() * 1e3);
    previous = stamps[i];
  }
  sample.segment_s.push_back(seconds_between(previous, t1));
  sample.digest = out.digest();
  return sample;
}

pas::io::Json campaign_record(bool traced, std::size_t jobs, double wall_s,
                              const std::string& digest) {
  pas::io::JsonObject record;
  record["traced"] = traced;
  record["jobs"] = jobs;
  record["wall_s"] = wall_s;
  record["digest"] = digest;
  return pas::io::Json(std::move(record));
}

pas::io::Json artifact_paths(const Outputs& out) {
  pas::io::JsonObject paths;
  paths["csv"] = out.csv;
  if (!out.jsonl.empty()) paths["jsonl"] = out.jsonl;
  if (!out.per_run.empty()) paths["perrun"] = out.per_run;
  return pas::io::Json(std::move(paths));
}

pas::io::Json measure_noise() {
  pas::sim::Pcg32 rng(0x5EEDULL, 7);
  std::uint32_t acc = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < (1 << 24); ++i) acc ^= rng.next();
  const auto t1 = Clock::now();
  g_calibration_sink = acc;
  double load[1] = {-1.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
  pas::io::JsonObject out;
  out["calibration_ms"] = seconds_between(t0, t1) * 1e3;
  out["loadavg_1m"] = load[0];
  return pas::io::Json(std::move(out));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
