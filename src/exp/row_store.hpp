// Binary campaign row store (".pasrows").
//
// The Aggregator's only row state: completed rows are appended to a compact
// binary log, so no row content is held in memory however many rows a
// campaign writes. Each record carries its kind (per-run row, point
// summary or telemetry row), its (point, rep) key, and the row's cell
// strings verbatim, so the export step renders the CSV/JSONL/--metrics
// bytes from the cells exactly as record() formatted them. Kind 3, a
// tombstone older builds appended, is no longer written: a scan treats it
// as a torn record, so the store is read up to it.
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
// boundaries. A point's batch is its per-run rows, then its telemetry row,
// then its summary; the summary is the batch's commit mark. A torn trailing
// record (short write, CRC mismatch) ends the clean prefix; open_append()
// truncates the file back to that prefix, so a killed campaign always
// resumes from a valid record sequence. encode()/decode() expose the same
// framing for a batch in memory, which is how a --drive worker hands a
// point's rows to the driver.
//
// Export: a record's byte offset names it. The export scans the store for
// the offset of each row's last record, then reads the rows back in point
// order through a Reader, one seek per record out of place.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pas::exp {

class RowStore {
 public:
  enum class Kind : std::uint8_t {
    kPerRun = 1,
    kSummary = 2,
    /// The point's --metrics JSONL row as one cell, rendered by
    /// telemetry_point_row(...).dump().
    kTelemetry = 4,
  };

  struct Record {
    Kind kind = Kind::kSummary;
    std::size_t point = 0;
    std::size_t rep = 0;
    /// The record's byte offset in the store file, set by scan(). Later
    /// records win when a (point, rep) appears more than once.
    std::uint64_t offset = 0;
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
  /// caller batches a point's records and flushes once per point boundary.
  void append(Kind kind, std::size_t point, std::size_t rep,
              const std::vector<std::string>& cells);

  /// Buffers records already framed by encode(); the caller has checked
  /// them (the Aggregator decodes a batch before it appends it).
  void append_encoded(std::string_view records);

  /// Writes the buffered batch with a single write + flush.
  void flush();

  void close();
  /// Closes and deletes the store file (finalize() exported everything).
  void remove_file();

  /// Appends one framed record (length, CRC, payload) to `out`: the bytes
  /// append() buffers for the same arguments.
  static void encode(std::string& out, Kind kind, std::size_t point,
                     std::size_t rep, const std::vector<std::string>& cells);

  /// Parses a sequence of framed records. Returns false, with `out` in an
  /// unspecified state, if any record is torn, fails its CRC or does not
  /// decode.
  static bool decode(std::string_view bytes, std::vector<Record>& out);

  /// Reads records back by the byte offsets scan() reported.
  class Reader {
   public:
    explicit Reader(const std::string& path);
    /// Reads the record at `offset` into `out`. Throws std::runtime_error
    /// if the bytes there are not one whole, intact record.
    void read(std::uint64_t offset, Record& out);

   private:
    std::string path_;
    std::ifstream in_;
    /// The offset the stream is at, so in-order reads never seek.
    std::uint64_t at_ = 0;
    std::string payload_;
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
