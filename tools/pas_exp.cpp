// pas-exp — run an experiment campaign from a JSON manifest.
//
//   pas-exp --manifest examples/campaign.json --jobs 8 --out out.csv
//   pas-exp --manifest examples/campaign.json --jobs 8 --out out.csv --resume
//
//   # one command instead of N terminals: a supervised multi-process
//   # campaign that hands out points as workers free up and recovers from
//   # crashed or hung workers, writing the same files a single process
//   # would
//   pas-exp --drive 4 --manifest examples/campaign.json --out out.csv
//
//   # split one manifest across machines by hand, then recombine every
//   # shard file (summary, --per-run and --metrics, any order) in one call
//   # that writes every output it names:
//   pas-exp --manifest c.json --shard 0/2 --out s0.csv --per-run r0.csv  # A
//   pas-exp --manifest c.json --shard 1/2 --out s1.csv --per-run r1.csv  # B
//   pas-exp --merge --manifest c.json --out full.csv --per-run runs.csv
//       s0.csv s1.csv r0.csv r1.csv
//
// The manifest declares the base scenario, the axes to sweep, and the
// replication count (see src/exp/manifest.hpp for the schema). Output is
// one CSV row per grid point (plus optional per-replication rows via
// --per-run); --resume reloads an interrupted campaign's file and computes
// only the missing points, and --merge imports shard files the same way.
// Results are independent of --jobs, --shard and --drive:
// the completed (merged) file is byte-identical for any parallel schedule,
// single- or multi-process.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/manifest.hpp"
#include "exp/row_store.hpp"
#include "exp/runner.hpp"
#include "metrics/report.hpp"
#include "io/cli.hpp"
#include "obs/export.hpp"
#include "orch/supervisor.hpp"
#include "orch/worker_link.hpp"
#include "serve/feed.hpp"
#include "serve/server.hpp"
#include "world/scenario.hpp"

namespace {

/// Set by SIGINT/SIGTERM during a campaign or drive (never in a --worker,
/// which the driver's SIGTERM must end); the campaign engine polls it
/// (CampaignOptions::should_stop) and --serve-linger exits on it. --drive
/// installs its own guard for the duration of the drive and restores this
/// one afterwards, so both topologies drain gracefully. Atomic, because
/// the campaign's pool threads read it while the handler writes it.
std::atomic<bool> g_stop_requested{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the signal handler needs a lock-free flag");

void handle_stop_signal(int) { g_stop_requested.store(true); }

/// Parses "i/N" into shard index + count. Returns false on malformed input.
bool parse_shard(const std::string& spec, std::size_t& index,
                 std::size_t& count) {
  const auto slash = spec.find('/');
  if (slash == std::string::npos) return false;
  const char* begin = spec.data();
  auto r1 = std::from_chars(begin, begin + slash, index);
  if (r1.ec != std::errc{} || r1.ptr != begin + slash) return false;
  auto r2 = std::from_chars(begin + slash + 1, begin + spec.size(), count);
  if (r2.ec != std::errc{} || r2.ptr != begin + spec.size()) return false;
  return count >= 1 && index < count;
}

/// JSON string-escapes the campaign name (quotes, backslashes, control
/// chars) so a creative manifest name cannot corrupt the bench file.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

/// The options each mode reads besides the flag that selects it, in the
/// order main() picks modes; a campaign runs when no other mode is
/// selected. Any other option given would be ignored, so it is an error.
struct ModeReads {
  std::string_view mode;
  std::string_view options;  // space-separated, without dashes
};
constexpr ModeReads kModeReads[] = {
    {"list-policies", ""},
    {"merge", "manifest out json per-run metrics"},
    {"agg-synth", "agg-reps out json per-run resume"},
    {"worker", "worker-id manifest out per-run metrics jobs"},
    {"export", "manifest out json per-run metrics"},
    {"dry-run", "manifest shard"},
    {"trace", "trace-point manifest"},
    {"drive",
     "manifest out json per-run metrics jobs resume hang-timeout bench-json "
     "quiet progress serve serve-linger"},
    {"campaign",
     "manifest out json per-run metrics jobs resume shard bench-json quiet "
     "progress serve serve-linger"},
};

/// The first of `given` that `mode` does not read, or "" if it reads all.
std::string_view foreign_option(std::string_view mode,
                                const std::vector<std::string>& given) {
  for (const auto& row : kModeReads) {
    if (row.mode != mode) continue;
    const std::string reads = " " + std::string(row.options) + " ";
    for (const auto& name : given) {
      if (name != mode && reads.find(" " + name + " ") == std::string::npos) {
        return name;
      }
    }
  }
  return {};
}

/// Appends one perf sample to the trajectory file (BENCH_orch.json in CI):
/// flat JSON, one object per line, so runs accumulate append-only.
void write_bench_json(const std::string& path,
                      const pas::exp::Manifest& manifest, const char* mode,
                      std::size_t workers, std::size_t jobs,
                      std::size_t computed_points, double wall_s) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "pas-exp: cannot write %s\n", path.c_str());
    return;
  }
  const double reps =
      static_cast<double>(computed_points * manifest.replications);
  std::fprintf(f,
               "{\"campaign\":\"%s\",\"mode\":\"%s\",\"workers\":%zu,"
               "\"jobs\":%zu,\"points\":%zu,\"replications\":%zu,"
               "\"computed_points\":%zu,\"wall_s\":%.3f,"
               "\"reps_per_s\":%.1f}\n",
               json_escape(manifest.name).c_str(), mode, workers, jobs,
               manifest.point_count(), manifest.replications, computed_points,
               wall_s, wall_s > 0.0 ? reps / wall_s : 0.0);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string out_csv = "out.csv";
  std::string out_json;
  std::string per_run_csv;
  std::string shard_spec;
  std::string bench_json;
  std::string metrics_path;
  std::string trace_path;
  std::uint64_t trace_point = 0;
  std::uint64_t jobs = 0;
  std::uint64_t drive_workers = 0;
  std::uint64_t worker_id = 0;
  double hang_timeout = 120.0;
  std::string serve_spec;
  std::uint64_t agg_synth = 0;
  std::uint64_t agg_reps = 4;
  bool do_export = false;
  bool serve_linger = false;
  bool resume = false;
  bool quiet = false;
  bool progress = false;
  bool dry_run = false;
  bool merge = false;
  bool worker = false;
  bool list_policies = false;

  pas::io::Cli cli("pas-exp",
                   "Run a scenario-grid experiment campaign from a JSON "
                   "manifest, sharded across worker threads, worker "
                   "processes (--drive), or machines (--shard), with "
                   "resumable CSV/JSON output. --merge recombines "
                   "finished shard files.");
  cli.add_string("manifest", &manifest_path,
                 "Path to the campaign manifest (required; --merge checks "
                 "every shard row against its grid)");
  cli.add_string("out", &out_csv, "Output CSV path");
  cli.add_string("json", &out_json, "Optional JSON-lines output path");
  cli.add_string("per-run", &per_run_csv,
                 "Optional per-replication CSV (one row per run; enables "
                 "p95/p99 quantile reporting)");
  cli.add_string("shard", &shard_spec,
                 "Run only this shard of the grid, format i/N (points with "
                 "index % N == i)");
  cli.add_uint("jobs", &jobs,
               "Worker threads (0 = hardware concurrency, 1 = serial; with "
               "--drive: threads per worker process, 0 = 1)");
  cli.add_uint("drive", &drive_workers,
               "Supervise N worker processes, handing out points as they "
               "free up, with crash recovery; they send their rows to this "
               "process, which writes --out");
  cli.add_flag("resume", &resume,
               "Reload --out and compute only the missing points");
  cli.add_flag("merge", &merge,
               "Merge finished shard files (positional args: summary CSVs, "
               "per-run CSVs and --metrics files, any order) into --out and "
               "the --json/--per-run/--metrics outputs named");
  cli.add_flag("progress", &progress,
               "Periodic one-line status (points done/total, reps/s, ETA) "
               "instead of per-point lines");
  cli.add_flag("quiet", &quiet, "Suppress per-point progress lines");
  cli.add_flag("dry-run", &dry_run,
               "Print the expanded grid and exit without simulating");
  cli.add_flag("list-policies", &list_policies,
               "Print the registered sleeping policies (valid \"policy\" "
               "axis values) and exit");
  cli.add_string("bench-json", &bench_json,
                 "Append a {wall_s, reps_per_s, ...} sample to this file "
                 "after a completed run");
  cli.add_string("metrics", &metrics_path,
                 "Per-point telemetry JSONL: kernel/protocol counters and "
                 "histograms per grid point plus a registry trailer; merges "
                 "byte-identically across --jobs/--shard/--drive/--resume");
  cli.add_string("trace", &trace_path,
                 "Write one grid point's structured event trace as JSONL to "
                 "this path and exit (no campaign output)");
  cli.add_uint("trace-point", &trace_point,
               "Grid point index for --trace (default 0)");
  cli.add_string("serve", &serve_spec,
                 "Serve the live campaign dashboard + HTTP API on host:port "
                 "(e.g. 127.0.0.1:8080; :0 picks a free port) while the "
                 "campaign runs; observe-only, outputs stay byte-identical");
  cli.add_flag("serve-linger", &serve_linger,
               "With --serve: keep serving the finished campaign until "
               "SIGINT");
  cli.add_double("hang-timeout", &hang_timeout,
                 "--drive: kill a worker that sends no protocol line "
                 "(heartbeats included) for this many seconds and reassign "
                 "its points in flight (0 disables)");
  cli.add_flag("export", &do_export,
               "Render the CSV/JSONL/--metrics artifacts from an existing "
               "--out row store (e.g. after an interrupted campaign) and "
               "exit; requires --manifest, keeps the store");
  cli.add_uint("agg-synth", &agg_synth,
               "Synthetic aggregation driver: record N fabricated points "
               "through the aggregator and finalize, no simulation (memory "
               "and throughput gating for the aggregation pipeline)");
  cli.add_uint("agg-reps", &agg_reps,
               "Replications per fabricated point for --agg-synth "
               "(default 4)");
  cli.add_flag("worker", &worker,
               "Internal: run as a --drive worker process (protocol on "
               "stdin/stdout)");
  cli.add_uint("worker-id", &worker_id, "Internal: this worker's id");
  if (!cli.parse(argc, argv)) return cli.status();
  const std::string_view mode = list_policies         ? "list-policies"
                                : merge               ? "merge"
                                : agg_synth > 0       ? "agg-synth"
                                : worker              ? "worker"
                                : do_export           ? "export"
                                : dry_run             ? "dry-run"
                                : !trace_path.empty() ? "trace"
                                : drive_workers > 0   ? "drive"
                                                      : "campaign";
  if (const auto name = foreign_option(mode, cli.given()); !name.empty()) {
    std::fprintf(stderr, "pas-exp: --%.*s is not read in %.*s mode\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<int>(mode.size()), mode.data());
    return 2;
  }

  try {
    if (list_policies) {
      pas::core::print_policy_registry(stdout);
      return 0;
    }

    if (merge) {
      const auto& inputs = cli.positional();
      if (inputs.empty() || manifest_path.empty()) {
        std::fprintf(stderr,
                     "pas-exp: --merge needs --manifest and the shard files "
                     "as positional arguments (try --help)\n");
        return 2;
      }
      pas::exp::AggregatorOptions outputs;
      outputs.csv_path = out_csv;
      outputs.json_path = out_json;
      outputs.per_run_path = per_run_csv;
      outputs.metrics_path = metrics_path;
      const auto points = pas::exp::merge_outputs(
          pas::exp::Manifest::load(manifest_path), inputs, outputs);
      std::printf("merged %zu points from %zu shard files -> %s\n", points,
                  inputs.size(), out_csv.c_str());
      return 0;
    }

    if (!cli.positional().empty()) {
      // Without this, a forgotten --merge would silently launch a full
      // campaign over the shard CSVs instead of merging them.
      std::fprintf(stderr,
                   "pas-exp: unexpected positional argument \"%s\" (shard "
                   "files are only accepted with --merge)\n",
                   cli.positional().front().c_str());
      return 2;
    }
    if (agg_synth > 0) {
      // Synthetic aggregation driver: pushes N fabricated points through
      // record()/finalize() without simulating anything — the workload the
      // smoke.scale max-RSS ceilings and the aggregation benches measure.
      // Inputs are a pure function of (point, rep), so the artifacts have
      // pinned digests.
      const auto n_points = static_cast<std::size_t>(agg_synth);
      const auto reps =
          std::max<std::size_t>(1, static_cast<std::size_t>(agg_reps));
      pas::exp::AggregatorOptions agg_options;
      agg_options.csv_path = out_csv;
      agg_options.json_path = out_json;
      agg_options.per_run_path = per_run_csv;
      agg_options.axis_names = {"x"};
      agg_options.total_points = n_points;
      agg_options.replications = reps;
      pas::exp::Aggregator aggregator(std::move(agg_options));
      if (resume) aggregator.load_existing();
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<pas::metrics::RunMetrics> runs(reps);
      for (std::size_t p = 0; p < n_points; ++p) {
        if (aggregator.is_done(p)) continue;
        for (std::size_t r = 0; r < reps; ++r) {
          auto& run = runs[r];
          run = pas::metrics::RunMetrics{};
          run.node_count = 64;
          run.duration_s = 600.0;
          run.avg_delay_s = 0.25 + 0.001 * static_cast<double>(p % 97) +
                            0.01 * static_cast<double>(r);
          run.p95_delay_s = run.avg_delay_s * 1.7;
          run.max_delay_s = run.avg_delay_s * 2.5;
          run.reached = 64;
          run.detected = 63;
          run.missed = (p + r) % 3 == 0 ? 1 : 0;
          run.avg_energy_j = 1.5 + 0.0005 * static_cast<double>(p % 53);
          run.total_energy_j = run.avg_energy_j * 64.0;
          run.avg_energy_tx_j = run.avg_energy_j * 0.1;
          run.avg_active_fraction =
              0.05 + 0.0001 * static_cast<double>((p + r) % 101);
          run.network.broadcasts = 100 + p % 11;
        }
        aggregator.record(p, 0x9e3779b97f4a7c15ull ^ p, {std::to_string(p)},
                          pas::world::reduce_runs(runs));
      }
      aggregator.finalize();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::printf(
          "agg-synth: %zu points x %zu reps in %.2fs (%.0f points/s) -> "
          "%s\n",
          n_points, reps, wall,
          wall > 0.0 ? static_cast<double>(n_points) / wall : 0.0,
          out_csv.c_str());
      return 0;
    }

    if (manifest_path.empty()) {
      std::fprintf(stderr, "pas-exp: --manifest is required (try --help)\n");
      return 2;
    }
    if (serve_linger && serve_spec.empty()) {
      std::fprintf(stderr,
                   "pas-exp: --serve-linger needs --serve <host:port>\n");
      return 2;
    }

    if (worker) {
      // Internal child mode of --drive: no human output, protocol only.
      const auto manifest = pas::exp::Manifest::load(manifest_path);
      pas::orch::WorkerOptions options;
      options.out_csv = out_csv;
      options.per_run_csv = per_run_csv;
      options.metrics_path = metrics_path;
      options.worker_id = static_cast<int>(worker_id);
      options.jobs = std::max<std::size_t>(1, static_cast<std::size_t>(jobs));
      return pas::orch::run_worker(manifest, options);
    }

    pas::exp::CampaignOptions options;
    if (!shard_spec.empty() &&
        !parse_shard(shard_spec, options.shard_index, options.shard_count)) {
      std::fprintf(stderr,
                   "pas-exp: --shard expects i/N with i < N (got \"%s\")\n",
                   shard_spec.c_str());
      return 2;
    }

    const auto manifest = pas::exp::Manifest::load(manifest_path);
    std::printf("campaign %s: %zu points x %zu replications = %zu runs\n",
                manifest.name.c_str(), manifest.point_count(),
                manifest.replications, manifest.run_count());

    const auto points = pas::exp::expand_grid(manifest);

    if (do_export) {
      // Render the artifacts out of an existing row store without running
      // anything — the recovery hatch for an interrupted campaign whose
      // files never materialized. Keeps the store (finalize, not export, is
      // what retires it); the --metrics file gets no trailer.
      pas::exp::Aggregator aggregator(pas::exp::campaign_aggregator_options(
          manifest, points, out_csv, out_json, per_run_csv, metrics_path));
      aggregator.load_existing();
      aggregator.compact();
      std::printf("exported %zu of %zu points from %s -> %s\n",
                  aggregator.done_count(), points.size(),
                  pas::exp::RowStore::path_for(out_csv).c_str(),
                  out_csv.c_str());
      return 0;
    }

    if (dry_run) {
      for (const auto& p : points) {
        if (options.shard_count > 1 &&
            p.index % options.shard_count != options.shard_index) {
          continue;
        }
        std::printf("  [%zu] %s (seed %llu)\n", p.index,
                    p.label(manifest).c_str(),
                    static_cast<unsigned long long>(p.seed));
      }
      return 0;
    }

    if (!trace_path.empty()) {
      // Single-point structured trace export: run one grid point with the
      // event trace enabled and dump it as JSONL, then exit — a debugging
      // companion to a campaign, not part of one.
      if (trace_point >= points.size()) {
        std::fprintf(stderr,
                     "pas-exp: --trace-point %llu is outside the grid "
                     "(%zu points)\n",
                     static_cast<unsigned long long>(trace_point),
                     points.size());
        return 2;
      }
      const auto& point = points[static_cast<std::size_t>(trace_point)];
      auto config = point.config;
      config.enable_trace = true;
      const auto result = pas::world::run_scenario(config);
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "pas-exp: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      pas::obs::write_trace_jsonl(result.trace, out);
      std::printf("trace: point %zu %s (seed %llu) -> %zu events -> %s\n",
                  point.index, point.label(manifest).c_str(),
                  static_cast<unsigned long long>(point.seed),
                  result.trace.size(), trace_path.c_str());
      return 0;
    }

    // --- live observability: one feed for terminal echo and --serve -------
    // The feed exists for every campaign topology (it renders the classic
    // --progress lines), but only retains point rows when a server will
    // actually read them back out of /api/points.
    const bool serving = !serve_spec.empty();
    pas::serve::CampaignFeed::Options feed_options;
    feed_options.store_points = serving;
    pas::serve::CampaignFeed feed(feed_options);
    std::unique_ptr<pas::serve::Server> server;
    std::thread server_thread;
    // Scope guard: every exit path (drive return, interrupt, exception)
    // announces shutdown to SSE clients, stops the poll loop, and joins the
    // server thread — which is also what flushes the flight-recorder dump.
    struct ServeShutdown {
      pas::serve::CampaignFeed& feed;
      std::unique_ptr<pas::serve::Server>& server;
      std::thread& thread;
      ~ServeShutdown() {
        if (server != nullptr) {
          feed.publish("shutdown", "{}");
          server->stop();
          if (thread.joinable()) thread.join();
        }
      }
    } serve_shutdown{feed, server, server_thread};
    if (serving) {
      pas::serve::Server::Options server_options;
      if (!pas::serve::parse_listen_address(serve_spec, server_options.host,
                                            server_options.port)) {
        std::fprintf(stderr,
                     "pas-exp: --serve expects host:port (got \"%s\")\n",
                     serve_spec.c_str());
        return 2;
      }
      server_options.flightrec_path = out_csv + ".flightrec";
      server = std::make_unique<pas::serve::Server>(feed, server_options);
      std::string error;
      if (!server->start(error)) {
        std::fprintf(stderr, "pas-exp: --serve: %s\n", error.c_str());
        return 1;
      }
      std::printf("pas-exp: serving on http://%s:%u/\n",
                  server->host().c_str(),
                  static_cast<unsigned>(server->port()));
      std::fflush(stdout);
      server_thread = std::thread([&server] { server->run(); });
    }
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    // An interrupted campaign leaves its output as resumable as a kill
    // does. Names the exact command that finishes it — every non-default
    // knob this invocation carried, plus --resume — and returns the exit
    // status.
    const auto report_interrupted = [&](std::size_t on_disk,
                                        std::size_t total) {
      std::string cmd = "pas-exp";
      if (drive_workers != 0) {
        cmd += " --drive " + std::to_string(drive_workers);
      }
      cmd += " --manifest " + manifest_path + " --out " + out_csv;
      if (!out_json.empty()) cmd += " --json " + out_json;
      if (!per_run_csv.empty()) cmd += " --per-run " + per_run_csv;
      if (!metrics_path.empty()) cmd += " --metrics " + metrics_path;
      if (!shard_spec.empty()) cmd += " --shard " + shard_spec;
      if (jobs != 0) cmd += " --jobs " + std::to_string(jobs);
      if (hang_timeout != 120.0) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), " --hang-timeout %g", hang_timeout);
        cmd += buf;
      }
      if (!bench_json.empty()) cmd += " --bench-json " + bench_json;
      if (quiet) cmd += " --quiet";
      if (progress) cmd += " --progress";
      std::printf(
          "interrupted: %zu of %zu points on disk; the output is resumable\n"
          "resume with: %s --resume\n",
          on_disk, total, cmd.c_str());
      return 130;
    };
    // --serve-linger: keep serving the finished campaign until SIGINT.
    const auto linger = [&] {
      while (serving && serve_linger && !g_stop_requested.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    };

    if (drive_workers > 0) {
      pas::orch::DriveOptions drive_options;
      drive_options.exe_path = pas::orch::self_exe_path(argv[0]);
      drive_options.manifest_path = manifest_path;
      drive_options.out_csv = out_csv;
      drive_options.json_path = out_json;
      drive_options.per_run_csv = per_run_csv;
      drive_options.metrics_path = metrics_path;
      drive_options.workers = static_cast<std::size_t>(drive_workers);
      drive_options.jobs_per_worker =
          std::max<std::size_t>(1, static_cast<std::size_t>(jobs));
      drive_options.resume = resume;
      drive_options.hang_timeout_s = hang_timeout;
      drive_options.verbosity =
          quiet ? pas::orch::DriveOptions::Verbosity::kQuiet
                : (progress
                       ? pas::orch::DriveOptions::Verbosity::kPeriodic
                       : pas::orch::DriveOptions::Verbosity::kPerPoint);
      drive_options.feed = &feed;

      const auto report = pas::orch::drive(manifest, drive_options);
      if (report.interrupted) {
        return report_interrupted(report.computed + report.resumed,
                                  report.total_points);
      }
      std::printf(
          "done: %zu points (%zu computed, %zu resumed) via %zu workers "
          "(%zu crashes, %zu respawns) in %.1fs (%.1f runs/s) -> %s\n",
          report.total_points, report.computed, report.resumed,
          report.workers_spawned, report.crashes, report.respawns,
          report.wall_s,
          report.wall_s > 0.0
              ? static_cast<double>(report.computed * report.replications) /
                    report.wall_s
              : 0.0,
          out_csv.c_str());
      if (!bench_json.empty()) {
        write_bench_json(bench_json, manifest, "drive",
                         drive_options.workers, drive_options.jobs_per_worker,
                         report.computed, report.wall_s);
      }
      linger();
      return 0;
    }

    options.jobs = static_cast<std::size_t>(jobs);
    options.resume = resume;
    options.out_csv = out_csv;
    options.out_json = out_json;
    options.per_run_csv = per_run_csv;
    options.metrics_path = metrics_path;
    options.feed = &feed;
    options.should_stop = [] { return g_stop_requested.load(); };
    // --progress is rendered by the feed (serve/feed.hpp): the terminal
    // line and any SSE "progress" event are two views of the same counters.
    feed.set_echo(progress && !quiet, /*drive_style=*/false);
    if (!progress && !quiet) {
      options.progress = [&points, &manifest](
                             const pas::exp::PointSummary& s,
                             std::size_t done, std::size_t total) {
        std::printf("[%zu/%zu] %s delay=%.3fs energy=%.4fJ\n", done, total,
                    points[s.point].label(manifest).c_str(), s.delay_s.mean,
                    s.energy_j.mean);
        std::fflush(stdout);
      };
    }

    const auto report = pas::exp::run_campaign(manifest, options);
    if (report.interrupted) {
      return report_interrupted(report.computed + report.skipped,
                                report.owned_points);
    }
    if (options.shard_count > 1) {
      std::printf("shard %zu/%zu: %zu of %zu points\n", options.shard_index,
                  options.shard_count, report.owned_points,
                  report.total_points);
    }
    std::printf(
        "done: %zu points (%zu computed, %zu resumed) in %.1fs "
        "(%.1f runs/s) -> %s\n",
        report.owned_points, report.computed, report.skipped, report.wall_s,
        report.wall_s > 0.0
            ? static_cast<double>(report.computed * report.replications) /
                  report.wall_s
            : 0.0,
        out_csv.c_str());
    if (!bench_json.empty()) {
      write_bench_json(bench_json, manifest, "single", 1, report.jobs,
                       report.computed, report.wall_s);
    }
    linger();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pas-exp: %s\n", e.what());
    return 1;
  }
}
