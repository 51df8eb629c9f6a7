// Binary campaign row store (".pasrows").
//
// The Aggregator's only row state: completed rows are appended to a compact
// binary log, so aggregation memory stays O(grid) however many rows a
// campaign writes. Each record carries its kind (per-run row, point
// summary, or tombstone), its (point, rep) key, and the row's cell strings
// verbatim, so the export step renders the CSV/JSONL bytes from the cells
// exactly as record() formatted them.
//
// Layout:
//   header   = "PASROWS1" (8 bytes) + u64 identity hash (little-endian)
//   record   = u32 payload_len + u32 crc32(payload) + payload
//   payload  = u8 kind + u64 point + u32 rep + u32 cell_count
//              + cell_count × (u32 len + bytes)
//
// The identity hash fingerprints the campaign (columns, grid size,
// replication count, per-point seed/axis identity) so resume rejects a
// store written under a different manifest — the binary equivalent of the
// CSV header + per-row identity checks.
//
// Kill-safety: records are appended in batches and flushed at point
// boundaries. A torn trailing record (short write, CRC mismatch) ends the
// clean prefix; open_append() truncates the file back to that prefix, so a
// killed campaign always resumes from a valid record sequence.
//
// Spill runs: the external-merge export sorts buffered records and spills
// them to sibling ".run<k>" files using the same framing with the record's
// store sequence number embedded in the payload (a store record's sequence
// number is implicit: its byte offset).
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

namespace pas::exp {

class RowStore {
 public:
  enum class Kind : std::uint8_t {
    kPerRun = 1,
    kSummary = 2,
    /// Invalidates every earlier record for its point (crash recovery's
    /// discard_points); an O(1) append instead of a file rewrite.
    kTombstone = 3,
  };

  struct Record {
    Kind kind = Kind::kSummary;
    std::size_t point = 0;
    std::size_t rep = 0;
    /// Monotonic within a store file: the record's byte offset. Later
    /// records win when a (point, rep) appears more than once, and a
    /// tombstone kills exactly the records appended before it.
    std::uint64_t seq = 0;
    std::vector<std::string> cells;
  };

  RowStore(std::string path, std::uint64_t identity_hash);

  /// The conventional store path for a campaign CSV.
  [[nodiscard]] static std::string path_for(const std::string& csv_path) {
    return csv_path + ".pasrows";
  }

  /// Campaign fingerprint for the store header. Hashes the output columns,
  /// grid size, replication count, and each point's expected seed/axis
  /// cells (FNV-1a, length-prefixed fields).
  [[nodiscard]] static std::uint64_t hash_identity(
      const std::vector<std::string>& columns, std::size_t total_points,
      std::size_t replications,
      const std::vector<std::vector<std::string>>& expected_identity);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] bool file_exists() const;

  /// Streams every record of the clean prefix in file order. Returns the
  /// clean-prefix byte count (header included). Throws std::runtime_error
  /// on a magic or identity-hash mismatch. `on_record` may be null (used
  /// to measure the prefix only).
  std::uint64_t scan(const std::function<void(const Record&)>& on_record) const;

  /// Opens the store for appending: validates the header, truncates a torn
  /// tail back to the clean prefix, and writes a fresh header when the file
  /// is missing or empty.
  void open_append();
  [[nodiscard]] bool is_open() const noexcept { return out_.is_open(); }

  /// Buffers one record; nothing reaches the file until flush(). The
  /// caller batches a point's per-run records + summary and flushes once
  /// per point boundary.
  void append(Kind kind, std::size_t point, std::size_t rep,
              const std::vector<std::string>& cells);

  /// Writes the buffered batch with a single write + flush.
  void flush();

  void close();
  /// Closes and deletes the store file (finalize() exported everything).
  void remove_file();

  // --- Spill runs for the external-merge export -----------------------------

  /// Writes `records` (already sorted by the caller) as a spill run.
  static void write_run(const std::string& path,
                        const std::vector<Record>& records);

  /// Sequential reader over a spill run. Runs are written and read within
  /// one export pass, so corruption is an I/O error, not a torn tail:
  /// next() throws std::runtime_error instead of stopping early.
  class RunReader {
   public:
    explicit RunReader(const std::string& path);
    /// Reads the next record; returns false at end of file.
    bool next(Record& out);

   private:
    std::string path_;
    std::ifstream in_;
  };

 private:
  std::uint64_t scan_impl(const std::function<void(const Record&)>& on_record,
                          bool* header_present) const;

  std::string path_;
  std::uint64_t identity_hash_ = 0;
  std::ofstream out_;
  std::string buffer_;
};

}  // namespace pas::exp
