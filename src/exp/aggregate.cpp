#include "exp/aggregate.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "exp/grid.hpp"
#include "exp/telemetry.hpp"
#include "io/csv.hpp"

namespace pas::exp {

namespace {

/// Default spill-buffer budget for the external-merge export.
constexpr std::size_t kDefaultSpillBudgetBytes = 32u << 20;

/// Replication counts up to this use exact (sort-based) delay quantiles in
/// record(); beyond it the streaming t-digest answers instead. The
/// threshold keeps every existing golden CSV bit-identical (campaign
/// manifests run far fewer replications) while bounding the sort cost for
/// sketch-scale points.
constexpr std::size_t kExactQuantileMaxReps = 256;

std::vector<std::string> split_join_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (const char c : line) {
    if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (c != '\r') {
      cell.push_back(c);
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

std::string join_csv(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += io::CsvWriter::escape(cells[i]);
  }
  return line;
}

bool parse_index(const std::string& cell, std::size_t& out) {
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), out);
  return ec == std::errc{} && ptr == cell.data() + cell.size();
}

/// True if the whole cell parses as a *finite* double (→ emit raw in JSON
/// lines). Non-finite cells ("nan"/"inf" from format_double) must not leak
/// into JSON, which has no such tokens; the caller emits null instead,
/// matching io::Json::dump's convention.
bool is_finite_numeric_cell(const std::string& cell, bool& non_finite) {
  non_finite = false;
  if (cell.empty()) return false;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || ptr != cell.data() + cell.size()) return false;
  if (!std::isfinite(value)) {
    non_finite = true;
    return false;
  }
  return true;
}

/// Export merge order within a point: per-run rows by rep, the telemetry
/// row, then the summary; sequence numbers break ties so later appends win
/// deterministically.
int kind_rank(RowStore::Kind kind) {
  switch (kind) {
    case RowStore::Kind::kPerRun: return 0;
    case RowStore::Kind::kTelemetry: return 1;
    case RowStore::Kind::kSummary: return 2;
  }
  return 3;
}

bool record_less(const RowStore::Record& a, const RowStore::Record& b) {
  if (a.point != b.point) return a.point < b.point;
  const int ra = kind_rank(a.kind), rb = kind_rank(b.kind);
  if (ra != rb) return ra < rb;
  if (a.rep != b.rep) return a.rep < b.rep;
  return a.seq < b.seq;
}

/// True if a --metrics point row carries the point's expected identity:
/// `want` is {seed, axis values...} as the CSV cells spell them.
bool telemetry_identity_matches(const io::Json& row,
                                const std::vector<std::string>& axis_names,
                                const std::vector<std::string>& want,
                                std::size_t replications) {
  const auto string_is = [](const io::Json& obj, const std::string& key,
                            const std::string& value) {
    return obj.contains(key) && obj.at(key).is_string() &&
           obj.at(key).as_string() == value;
  };
  if (!string_is(row, "seed", want.front())) return false;
  if (!row.contains("axes") || !row.at("axes").is_object() ||
      row.at("axes").as_object().size() != axis_names.size()) {
    return false;
  }
  for (std::size_t a = 0; a < axis_names.size(); ++a) {
    if (!string_is(row.at("axes"), axis_names[a], want[1 + a])) return false;
  }
  return replications == 0 ||
         (row.contains("replications") && row.at("replications").is_number() &&
          row.at("replications").as_double() ==
              static_cast<double>(replications));
}

/// True if `line` is a JSON object of kind "point" or "registry": the
/// first row of a --metrics file, even of one whose shard owned no points
/// and so holds only its trailer.
bool is_metrics_line(const std::string& line) {
  try {
    const io::Json row = io::Json::parse(line);
    if (!row.is_object()) return false;
    const std::string kind = row.string_or("kind", "");
    return kind == "point" || kind == "registry";
  } catch (const std::runtime_error&) {
    return false;
  }
}

/// One exported artifact, written to `<path>.tmp` and renamed over `path`
/// by commit() so a reader never sees a half-written file. An empty path
/// disables it.
class ExportFile {
 public:
  explicit ExportFile(std::string path) : path_(std::move(path)) {
    if (path_.empty()) return;
    out_.open(path_ + ".tmp", std::ios::trunc);
    if (!out_) {
      throw std::runtime_error("Aggregator: cannot write " + path_ + ".tmp");
    }
  }
  ExportFile(const ExportFile&) = delete;
  ExportFile& operator=(const ExportFile&) = delete;
  /// A failed export leaves no temp file behind.
  ~ExportFile() {
    if (path_.empty() || committed_) return;
    out_.close();
    std::error_code ec;
    std::filesystem::remove(path_ + ".tmp", ec);
  }
  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  std::ofstream& out() { return out_; }
  void commit() {
    if (path_.empty()) return;
    out_.close();
    if (std::rename((path_ + ".tmp").c_str(), path_.c_str()) != 0) {
      throw std::runtime_error("Aggregator: cannot replace " + path_);
    }
    committed_ = true;
  }

 private:
  std::string path_;
  std::ofstream out_;
  bool committed_ = false;
};

/// Approximate in-memory footprint of a buffered record, for the spill
/// budget accounting.
std::size_t record_bytes(const RowStore::Record& r) {
  std::size_t n = sizeof(RowStore::Record) + 32;
  for (const auto& cell : r.cells) n += cell.size() + sizeof(std::string);
  return n;
}

}  // namespace

PointSummary PointSummary::of(std::size_t point, std::uint64_t seed,
                              const world::ReplicatedMetrics& m) {
  PointSummary s;
  s.point = point;
  s.seed = seed;
  s.replications = m.runs.size();
  s.delay_s = m.delay_s;
  s.energy_j = m.energy_j;
  s.active_fraction = m.active_fraction;
  s.mean_missed = m.mean_missed;
  s.mean_broadcasts = m.mean_broadcasts;
  return s;
}

std::vector<std::string> Aggregator::metric_columns() {
  return {"replications",  "delay_mean_s",         "delay_ci95_s",
          "delay_min_s",   "delay_max_s",          "delay_p50_s",
          "delay_p95_s",   "delay_p99_s",          "energy_mean_j",
          "energy_ci95_j", "energy_min_j",         "energy_max_j",
          "active_fraction_mean",                  "missed_mean",
          "broadcasts_mean"};
}

std::vector<std::string> Aggregator::per_run_metric_columns() {
  return {"avg_delay_s", "p95_delay_s", "max_delay_s",     "avg_energy_j",
          "active_fraction",            "missed",          "censored",
          "broadcasts"};
}

Aggregator::Aggregator(AggregatorOptions options)
    : csv_path_(std::move(options.csv_path)),
      json_path_(std::move(options.json_path)),
      per_run_path_(std::move(options.per_run_path)),
      metrics_path_(std::move(options.metrics_path)),
      axis_names_(options.axis_names),
      total_points_(options.total_points),
      replications_(options.replications),
      expected_identity_(std::move(options.expected_identity)),
      store_path_(std::move(options.store_path)),
      spill_budget_bytes_(options.spill_budget_bytes),
      done_(total_points_, 0) {
  if (!expected_identity_.empty() &&
      expected_identity_.size() != total_points_) {
    throw std::logic_error("Aggregator: expected_identity size mismatch");
  }
  if (!per_run_path_.empty() && replications_ == 0) {
    throw std::logic_error(
        "Aggregator: per-run output requires the replication count");
  }
  if (!per_run_path_.empty() && csv_path_.empty()) {
    // Resume pairs per-run groups with summary rows; without the summary
    // CSV every recovered group would look orphaned and be wiped.
    throw std::logic_error(
        "Aggregator: per-run output requires a summary CSV path");
  }
  if (!metrics_path_.empty() && csv_path_.empty()) {
    // The telemetry rows live in the store that backs the CSV.
    throw std::logic_error(
        "Aggregator: a metrics path requires a summary CSV path");
  }
  if (!store_path_.empty() && csv_path_.empty()) {
    // The store exists to back a CSV artifact; in-memory aggregation
    // (benches, unit tests) has nothing to export.
    throw std::logic_error(
        "Aggregator: a row-store path requires a summary CSV path");
  }
  if (options.owned_points.has_value()) {
    owned_.assign(total_points_, 0);
    for (const auto p : *options.owned_points) {
      if (p >= total_points_) {
        throw std::logic_error("Aggregator: owned point out of range");
      }
      if (owned_[p] == 0) ++owned_count_;
      owned_[p] = 1;
    }
  } else {
    owned_.assign(total_points_, 1);
    owned_count_ = total_points_;
  }
  columns_ = {"point", "seed"};
  columns_.insert(columns_.end(), options.axis_names.begin(),
                  options.axis_names.end());
  const auto metrics = metric_columns();
  columns_.insert(columns_.end(), metrics.begin(), metrics.end());

  per_run_columns_ = {"point", "rep", "seed"};
  per_run_columns_.insert(per_run_columns_.end(), options.axis_names.begin(),
                          options.axis_names.end());
  const auto run_metrics = per_run_metric_columns();
  per_run_columns_.insert(per_run_columns_.end(), run_metrics.begin(),
                          run_metrics.end());

  if (!csv_path_.empty()) {
    if (store_path_.empty()) store_path_ = RowStore::path_for(csv_path_);
    identity_hash_ = RowStore::hash_identity(columns_, total_points_,
                                             replications_,
                                             expected_identity_);
  }
}

std::string Aggregator::json_line(const std::vector<std::string>& cells) const {
  std::string out = "{";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('"');
    out += columns_[i];
    out += "\":";
    bool non_finite = false;
    if (is_finite_numeric_cell(cells[i], non_finite)) {
      out += cells[i];
    } else if (non_finite) {
      out += "null";
    } else {
      out.push_back('"');
      out += cells[i];
      out.push_back('"');
    }
  }
  out.push_back('}');
  return out;
}

void Aggregator::read_csv_rows(
    const Import& file,
    const std::function<void(std::size_t, std::size_t,
                             std::vector<std::string>)>& on_row) {
  const bool per_run = file.kind == RowStore::Kind::kPerRun;
  const auto& want_header = per_run ? per_run_columns_ : columns_;
  std::ifstream in(file.path);
  if (!in) return;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (split_join_csv(line) != want_header) {
        throw std::runtime_error("Aggregator: the header of " + file.path +
                                 " does not match this campaign's columns "
                                 "(another manifest?)");
      }
      continue;
    }
    auto cells = split_join_csv(line);
    // A row truncated by a kill mid-write has the wrong cell count;
    // drop it and let the runner recompute that point.
    if (cells.size() != want_header.size()) continue;
    std::size_t point = 0, rep = 0;
    if (!parse_index(cells[0], point)) continue;
    if (per_run && !parse_index(cells[1], rep)) continue;
    if (point >= total_points_) continue;
    if (!owns(point)) {
      throw std::runtime_error(
          "Aggregator: row for point " + std::to_string(point) + " in " +
          file.path + " does not belong to this shard (wrong --shard?)");
    }
    on_row(point, rep, std::move(cells));
  }
}

bool Aggregator::summary_identity_matches(
    std::size_t point, const std::vector<std::string>& cells) const {
  if (expected_identity_.empty()) return true;
  // cells[1..1+axis_count] are the seed + axis values, and the replications
  // cell follows them. Seeds are independent of the replication count,
  // hence the separate check.
  const auto& want = expected_identity_[point];
  for (std::size_t k = 0; k < want.size(); ++k) {
    if (cells[1 + k] != want[k]) return false;
  }
  return replications_ == 0 ||
         cells[1 + want.size()] == std::to_string(replications_);
}

void Aggregator::ensure_store() {
  if (!store_) {
    store_ = std::make_unique<RowStore>(store_path_, identity_hash_);
  }
  if (!store_->is_open()) store_->open_append();
}

void Aggregator::import_artifacts(const std::vector<Import>& files) {
  // No store but files to import: a finalized campaign (or a stale file
  // from another one) on resume, or the shard files of a merge. Every row
  // passes the header, identity, shard and repeat checks on its way into a
  // temporary store, which replaces nothing until the whole import
  // succeeded — a failed or killed import leaves no store that a later
  // resume would trust over the artifacts. Rows are streamed, never held:
  // the scan after the rename decides which points are done.
  const std::string tmp_path = store_path_ + ".tmp";
  std::error_code ec;
  std::filesystem::remove(tmp_path, ec);
  try {
    RowStore tmp(tmp_path, identity_hash_);
    tmp.open_append();
    // A finalized artifact never repeats a row, so a row imported twice
    // means two inputs overlap. A point's byte holds one bit per kind
    // (kSummary and kTelemetry are distinct bits); per-run rows get a byte
    // per (point, rep).
    std::vector<std::uint8_t> seen(total_points_, 0);
    std::vector<std::uint8_t> seen_runs(
        per_run_path_.empty() ? 0 : total_points_ * replications_, 0);
    // RowStore buffers appends until flush(); flushing every 1024 rows keeps
    // that buffer small however large the artifact is.
    std::size_t batched = 0;
    const auto append = [&](const Import& file, std::size_t point,
                            std::size_t rep,
                            const std::vector<std::string>& cells) {
      std::uint8_t& flags = file.kind == RowStore::Kind::kPerRun
                                ? seen_runs[point * replications_ + rep]
                                : seen[point];
      const auto bit = static_cast<std::uint8_t>(file.kind);
      if ((flags & bit) != 0) {
        throw std::runtime_error("Aggregator: " + file.path +
                                 " repeats a row of point " +
                                 std::to_string(point) +
                                 " (overlapping shards?)");
      }
      flags |= bit;
      tmp.append(file.kind, point, rep, cells);
      if (++batched % 1024 == 0) tmp.flush();
    };
    const auto mismatch = [](const char* row, std::size_t point,
                             const Import& file) {
      // A mismatch means the file was produced by a different manifest,
      // and importing it would mix incompatible results.
      return std::runtime_error(
          std::string("Aggregator: ") + row + " for point " +
          std::to_string(point) + " in " + file.path +
          " was computed with different parameters (manifest changed?)");
    };
    for (const Import& file : files) {
      switch (file.kind) {
        case RowStore::Kind::kSummary:
          read_csv_rows(file, [&](std::size_t point, std::size_t,
                                  std::vector<std::string> cells) {
            if (!summary_identity_matches(point, cells)) {
              throw mismatch("row", point, file);
            }
            append(file, point, 0, cells);
          });
          break;
        case RowStore::Kind::kPerRun:
          read_csv_rows(file, [&](std::size_t point, std::size_t rep,
                                  std::vector<std::string> cells) {
            if (rep >= replications_) return;
            if (!expected_identity_.empty()) {
              // Cells are point,rep,seed,axes...; the run's seed must be
              // the point seed plus the replication index, and the axis
              // cells must match.
              const auto& want = expected_identity_[point];
              std::size_t point_seed = 0;
              bool matches = parse_index(want.front(), point_seed) &&
                             cells[2] == std::to_string(point_seed + rep);
              for (std::size_t k = 1; matches && k < want.size(); ++k) {
                matches = cells[2 + k] == want[k];
              }
              if (!matches) throw mismatch("--per-run row", point, file);
            }
            append(file, point, rep, cells);
          });
          break;
        case RowStore::Kind::kTelemetry: {
          std::ifstream in(file.path);
          std::string line;
          while (std::getline(in, line)) {
            // Trailers, torn or unparsable lines and points outside the
            // grid are dropped; their points are recomputed.
            io::Json row;
            const std::size_t point =
                parse_point_row(line, total_points_, &row);
            if (point == SIZE_MAX) continue;
            if (!owns(point)) {
              throw std::runtime_error(
                  "Aggregator: telemetry row for point " +
                  std::to_string(point) + " in " + file.path +
                  " does not belong to this shard (wrong --shard?)");
            }
            if (!expected_identity_.empty() &&
                !telemetry_identity_matches(row, axis_names_,
                                            expected_identity_[point],
                                            replications_)) {
              throw mismatch("--metrics row", point, file);
            }
            append(file, point, 0, {line});
          }
          break;
        }
      }
    }
    tmp.close();
  } catch (...) {
    std::filesystem::remove(tmp_path, ec);
    throw;
  }
  std::filesystem::rename(tmp_path, store_path_);
}

std::size_t Aggregator::load_existing() {
  std::vector<Import> own;
  for (Import file : {Import{csv_path_, RowStore::Kind::kSummary},
                      Import{per_run_path_, RowStore::Kind::kPerRun},
                      Import{metrics_path_, RowStore::Kind::kTelemetry}}) {
    std::error_code ec;
    if (!file.path.empty() && std::filesystem::exists(file.path, ec)) {
      own.push_back(file);
    }
  }
  return load(own);
}

std::size_t Aggregator::load_existing(const std::vector<std::string>& inputs) {
  std::vector<Import> files;
  files.reserve(inputs.size());
  for (const auto& path : inputs) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("Aggregator: cannot read " + path);
    std::string first;
    while (first.empty() && std::getline(in, first)) {
    }
    const auto cells = split_join_csv(first);
    if (cells == columns_) {
      files.push_back({path, RowStore::Kind::kSummary});
    } else if (!per_run_path_.empty() && cells == per_run_columns_) {
      files.push_back({path, RowStore::Kind::kPerRun});
    } else if (!metrics_path_.empty() && is_metrics_line(first)) {
      files.push_back({path, RowStore::Kind::kTelemetry});
    } else {
      throw std::runtime_error(
          "Aggregator: cannot import " + path +
          ": expected this campaign's summary CSV, its per-run CSV (with "
          "--per-run output) or a --metrics file (with --metrics output); a "
          "--json mirror is rendered, not imported");
    }
  }
  return load(files);
}

std::size_t Aggregator::load(const std::vector<Import>& imports) {
  const std::lock_guard lock(mutex_);
  if (loaded_) throw std::logic_error("Aggregator: load_existing called twice");
  loaded_ = true;
  if (csv_path_.empty()) return 0;

  std::error_code ec;
  if (!imports.empty() && !std::filesystem::exists(store_path_, ec)) {
    import_artifacts(imports);
  }
  // Validates the header against this campaign's identity hash and
  // truncates a torn trailing record before we scan.
  store_ = std::make_unique<RowStore>(store_path_, identity_hash_);
  store_->open_append();

  const bool per_run = !per_run_path_.empty();
  std::vector<std::uint8_t> summary_live(total_points_, 0);
  std::vector<std::uint8_t> telemetry_live(total_points_, 0);
  std::vector<std::uint8_t> rep_live;
  if (per_run) rep_live.assign(total_points_ * replications_, 0);
  store_->scan([&](const RowStore::Record& r) {
    if (r.point >= total_points_) return;
    if (!owns(r.point)) {
      throw std::runtime_error(
          "Aggregator: row for point " + std::to_string(r.point) + " in " +
          store_path_ +
          " does not belong to this shard (wrong --shard/--out pairing?)");
    }
    switch (r.kind) {
      case RowStore::Kind::kSummary:
        summary_live[r.point] = 1;
        break;
      case RowStore::Kind::kTelemetry:
        telemetry_live[r.point] = 1;
        break;
      case RowStore::Kind::kPerRun:
        if (per_run && r.rep < replications_) {
          rep_live[r.point * replications_ + r.rep] = 1;
        }
        break;
    }
  });

  for (std::size_t p = 0; p < total_points_; ++p) {
    if (summary_live[p] == 0) continue;
    // With --metrics a point without its telemetry row (a campaign first
    // run without it, a row lost from the file) is recomputed, so the
    // finalized file holds every point.
    if (!metrics_path_.empty() && telemetry_live[p] == 0) continue;
    if (per_run) {
      // A summary without its full per-run group is torn (kill between the
      // group and the summary, a partial batch, or a CSV pair cut short) —
      // recompute the point.
      bool complete = true;
      for (std::size_t r = 0; complete && r < replications_; ++r) {
        complete = rep_live[p * replications_ + r] != 0;
      }
      if (!complete) continue;
    }
    done_[p] = 1;
    ++done_count_;
  }
  return done_count_;
}

void Aggregator::export_store(const std::vector<io::Json>& trailers) {
  // Caller holds mutex_; store_ is open. External merge: buffer records up
  // to the spill budget, spill sorted runs, then k-way merge the runs with
  // the final in-memory batch and render the artifacts in one streaming
  // pass — memory stays O(budget) + O(one per-run group).
  store_->flush();
  const std::size_t budget =
      spill_budget_bytes_ != 0 ? spill_budget_bytes_ : kDefaultSpillBudgetBytes;
  // Opened first, so an unwritable artifact fails before any spill run
  // exists; an uncommitted one removes its temp file.
  ExportFile csv(csv_path_), json(json_path_), per_run_file(per_run_path_),
      metrics(metrics_path_);

  // A crashed export leaves numbered run files behind; they are always
  // consecutive from 0, so delete until the first gap.
  for (std::size_t k = 0;; ++k) {
    std::error_code ec;
    if (!std::filesystem::remove(store_path_ + ".run" + std::to_string(k),
                                 ec)) {
      break;
    }
  }

  std::vector<std::string> run_paths;
  std::vector<RowStore::Record> buffer;
  std::size_t buffered = 0;
  const auto spill = [&] {
    std::sort(buffer.begin(), buffer.end(), record_less);
    std::string path = store_path_ + ".run" + std::to_string(run_paths.size());
    RowStore::write_run(path, buffer);
    run_paths.push_back(std::move(path));
    buffer.clear();
    buffered = 0;
  };
  store_->scan([&](const RowStore::Record& r) {
    buffered += record_bytes(r);
    buffer.push_back(r);
    if (buffered >= budget) spill();
  });
  std::sort(buffer.begin(), buffer.end(), record_less);

  struct Source {
    std::unique_ptr<RowStore::RunReader> reader;
    const std::vector<RowStore::Record>* mem = nullptr;
    std::size_t mem_idx = 0;
    RowStore::Record cur;
    bool advance() {
      if (reader) return reader->next(cur);
      if (mem_idx >= mem->size()) return false;
      cur = (*mem)[mem_idx++];
      return true;
    }
  };
  std::vector<Source> sources(run_paths.size() + 1);
  for (std::size_t i = 0; i < run_paths.size(); ++i) {
    sources[i].reader = std::make_unique<RowStore::RunReader>(run_paths[i]);
  }
  sources.back().mem = &buffer;
  const auto source_after = [](const Source* a, const Source* b) {
    return record_less(b->cur, a->cur);
  };
  std::priority_queue<Source*, std::vector<Source*>, decltype(source_after)>
      heap(source_after);
  for (auto& s : sources) {
    if (s.advance()) heap.push(&s);
  }

  const bool per_run = per_run_file.enabled();
  csv.out() << join_csv(columns_) << '\n';
  if (per_run) per_run_file.out() << join_csv(per_run_columns_) << '\n';

  // Per-point group state: last-wins by sequence number. Only a complete
  // group — a summary plus, in per-run mode, every replication and, with
  // --metrics, the telemetry row — is rendered; torn batches vanish,
  // exactly the points the resume scan counts as not done.
  std::size_t cur_point = SIZE_MAX;
  std::optional<RowStore::Record> summary;
  std::optional<RowStore::Record> telemetry;
  std::vector<std::optional<RowStore::Record>> latest_rep(
      per_run ? replications_ : 0);
  const auto live = [&](const std::optional<RowStore::Record>& r,
                        std::size_t cells) {
    return r.has_value() && r->cells.size() == cells;
  };
  const auto keep_latest = [](std::optional<RowStore::Record>& slot,
                              const RowStore::Record& r) {
    if (!slot.has_value() || slot->seq < r.seq) slot = r;
  };

  const auto emit_group = [&] {
    if (cur_point == SIZE_MAX) return;
    bool complete = live(summary, columns_.size()) &&
                    (!metrics.enabled() || live(telemetry, 1));
    for (std::size_t r = 0; complete && r < latest_rep.size(); ++r) {
      complete = live(latest_rep[r], per_run_columns_.size());
    }
    if (complete) {
      for (const auto& run : latest_rep) {
        per_run_file.out() << join_csv(run->cells) << '\n';
      }
      csv.out() << join_csv(summary->cells) << '\n';
      if (json.enabled()) json.out() << json_line(summary->cells) << '\n';
      if (metrics.enabled()) metrics.out() << telemetry->cells.front() << '\n';
    }
    summary.reset();
    telemetry.reset();
    std::fill(latest_rep.begin(), latest_rep.end(), std::nullopt);
  };

  while (!heap.empty()) {
    Source* s = heap.top();
    heap.pop();
    const RowStore::Record& r = s->cur;
    if (r.point != cur_point) {
      emit_group();
      cur_point = r.point;
    }
    switch (r.kind) {
      case RowStore::Kind::kSummary:
        keep_latest(summary, r);
        break;
      case RowStore::Kind::kTelemetry:
        keep_latest(telemetry, r);
        break;
      case RowStore::Kind::kPerRun:
        if (r.rep < latest_rep.size()) keep_latest(latest_rep[r.rep], r);
        break;
    }
    if (s->advance()) heap.push(s);
  }
  emit_group();

  csv.commit();
  json.commit();
  per_run_file.commit();
  for (const auto& trailer : trailers) {
    if (metrics.enabled()) metrics.out() << trailer.dump() << '\n';
  }
  metrics.commit();
  sources.clear();  // closes the run readers before unlinking
  for (const auto& path : run_paths) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

bool Aggregator::is_done(std::size_t point) const {
  const std::lock_guard lock(mutex_);
  return point < done_.size() && done_[point] != 0;
}

std::vector<std::size_t> Aggregator::pending() const {
  const std::lock_guard lock(mutex_);
  std::vector<std::size_t> out;
  out.reserve(owned_count() - done_count_);
  for (std::size_t p = 0; p < total_points_; ++p) {
    if (owns(p) && done_[p] == 0) out.push_back(p);
  }
  return out;
}

void Aggregator::record(const GridPoint& point,
                        const world::ReplicatedMetrics& m) {
  append_batch(point.index, encode_point(point, m));
}

void Aggregator::record(std::size_t point, std::uint64_t seed,
                        const std::vector<std::string>& axis_values,
                        const world::ReplicatedMetrics& m) {
  if (!metrics_path_.empty()) {
    throw std::logic_error(
        "Aggregator: with a metrics path, record the GridPoint so its "
        "telemetry row can be rendered");
  }
  append_batch(point, encode_batch(point, seed, axis_values, m, nullptr));
}

std::string Aggregator::encode_point(const GridPoint& point,
                                     const world::ReplicatedMetrics& m) const {
  return encode_batch(point.index, point.seed, point.values, m, &point);
}

std::string Aggregator::encode_batch(
    std::size_t point, std::uint64_t seed,
    const std::vector<std::string>& axis_values,
    const world::ReplicatedMetrics& m, const GridPoint* grid_point) const {
  if (axis_values.size() != axis_names_.size()) {
    throw std::logic_error("Aggregator: axis value count mismatch");
  }
  if (point >= total_points_) {
    throw std::logic_error("Aggregator: record for a point outside the grid");
  }
  if (!owns(point)) {
    throw std::logic_error("Aggregator: record for a point outside the shard");
  }
  // The whole point — per-run group, telemetry row, then summary — is one
  // batch, written with one flush at the point boundary: the summary
  // record doubles as the batch's commit mark, so a torn batch is dropped
  // on resume.
  std::string batch;
  if (!per_run_path_.empty()) {
    // One row per replication (seed column is the run's own seed).
    std::vector<std::string> rc;
    rc.reserve(per_run_columns_.size());
    for (std::size_t r = 0; r < m.runs.size(); ++r) {
      const auto& run = m.runs[r];
      rc.clear();
      rc.push_back(std::to_string(point));
      rc.push_back(std::to_string(r));
      rc.push_back(std::to_string(seed + r));
      rc.insert(rc.end(), axis_values.begin(), axis_values.end());
      for (const double v : {run.avg_delay_s, run.p95_delay_s,
                             run.max_delay_s, run.avg_energy_j,
                             run.avg_active_fraction}) {
        rc.push_back(io::format_double(v));
      }
      rc.push_back(std::to_string(run.missed));
      rc.push_back(std::to_string(run.censored));
      rc.push_back(std::to_string(run.network.broadcasts));
      RowStore::encode(batch, RowStore::Kind::kPerRun, point, r, rc);
    }
  }
  if (!metrics_path_.empty()) {
    RowStore::encode(batch, RowStore::Kind::kTelemetry, point, 0,
                     {telemetry_point_row(*grid_point, axis_names_, m).dump()});
  }

  std::vector<std::string> cells;
  cells.reserve(columns_.size());
  cells.push_back(std::to_string(point));
  cells.push_back(std::to_string(seed));
  cells.insert(cells.end(), axis_values.begin(), axis_values.end());
  cells.push_back(std::to_string(m.runs.size()));
  metrics::Percentiles delay_pct;
  if (m.runs.size() > kExactQuantileMaxReps &&
      m.delay_digest.count() == m.runs.size()) {
    // Sketch-scale point: read the streamed digest instead of sorting the
    // full per-run sample.
    delay_pct = metrics::Percentiles{.p50 = m.delay_digest.quantile(0.50),
                                     .p95 = m.delay_digest.quantile(0.95),
                                     .p99 = m.delay_digest.quantile(0.99)};
  } else {
    std::vector<double> delays;
    delays.reserve(m.runs.size());
    for (const auto& run : m.runs) delays.push_back(run.avg_delay_s);
    delay_pct = metrics::Percentiles::of_inplace(delays);
  }
  for (const double v :
       {m.delay_s.mean, m.delay_s.ci95_half, m.delay_s.min, m.delay_s.max,
        delay_pct.p50, delay_pct.p95, delay_pct.p99, m.energy_j.mean,
        m.energy_j.ci95_half, m.energy_j.min, m.energy_j.max,
        m.active_fraction.mean, m.mean_missed, m.mean_broadcasts}) {
    cells.push_back(io::format_double(v));
  }
  RowStore::encode(batch, RowStore::Kind::kSummary, point, 0, cells);
  return batch;
}

void Aggregator::record_encoded(std::size_t point, std::string_view bytes) {
  const auto reject = [point](const std::string& why) {
    throw std::runtime_error("Aggregator: rows for point " +
                             std::to_string(point) + " rejected: " + why);
  };
  if (point >= total_points_ || !owns(point)) reject("not in this campaign");
  std::vector<RowStore::Record> records;
  if (!RowStore::decode(bytes, records)) reject("torn or corrupt record");
  const std::size_t runs = per_run_path_.empty() ? 0 : replications_;
  const std::size_t want = runs + (metrics_path_.empty() ? 0 : 1) + 1;
  if (records.size() != want) {
    reject(std::to_string(records.size()) + " records, expected " +
           std::to_string(want));
  }
  for (std::size_t i = 0; i < want; ++i) {
    const RowStore::Record& r = records[i];
    const bool in_place =
        r.point == point &&
        (i < runs ? r.kind == RowStore::Kind::kPerRun && r.rep == i &&
                        r.cells.size() == per_run_columns_.size()
         : i + 1 < want
             ? r.kind == RowStore::Kind::kTelemetry && r.rep == 0 &&
                   r.cells.size() == 1
             : r.kind == RowStore::Kind::kSummary && r.rep == 0 &&
                   r.cells.size() == columns_.size());
    if (!in_place) reject("record " + std::to_string(i) + " is out of place");
  }
  const auto& summary = records.back().cells;
  if (summary[0] != std::to_string(point) ||
      !summary_identity_matches(point, summary)) {
    reject("computed with different parameters (manifest changed?)");
  }
  append_batch(point, bytes);
}

void Aggregator::append_batch(std::size_t point, std::string_view batch) {
  const std::lock_guard lock(mutex_);
  if (done_[point] != 0) return;  // already recovered via resume
  if (!csv_path_.empty()) {
    ensure_store();
    store_->append_encoded(batch);
    store_->flush();
  }
  done_[point] = 1;
  ++done_count_;
}

void Aggregator::finalize(const std::vector<io::Json>& trailers) {
  const std::lock_guard lock(mutex_);
  if (done_count_ != owned_count()) {
    throw std::logic_error("Aggregator: finalize with incomplete campaign");
  }
  if (csv_path_.empty()) return;
  ensure_store();
  export_store(trailers);
  // The artifacts now carry everything; resume imports them back into a
  // store if it is ever needed.
  store_->remove_file();
}

void Aggregator::compact() {
  const std::lock_guard lock(mutex_);
  if (csv_path_.empty()) return;
  // Export the current state; the store stays open and authoritative
  // (superseded generations resolve at export, so no store rewrite is
  // needed).
  ensure_store();
  export_store({});
}

std::size_t Aggregator::done_count() const {
  const std::lock_guard lock(mutex_);
  return done_count_;
}

}  // namespace pas::exp
