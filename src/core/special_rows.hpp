// Special-row checkpointing (CUDAlign-style extension).
//
// CUDAlign's later stages retrieve the full alignment by re-running small
// parts of the matrix between saved "special rows". Stage 1 optionally
// checkpoints the H values of every k-th block-row border here. In the
// multi-device engine each device saves only its column slice, so a
// special row arrives as several segments that this store stitches
// together.
//
// Two storage modes, as in CUDAlign (which writes its special rows area
// to disk because a megabase run checkpoints gigabytes):
//   * in-memory (default) — segments held in RAM;
//   * disk-spill — construct with a directory; each row's segments are
//     appended to one binary file, RAM holds only per-row metadata.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sw/scoring.hpp"

namespace mgpusw::core {

class SpecialRowStore {
 public:
  /// In-memory store.
  SpecialRowStore() = default;

  /// Disk-spilling store: segments are appended to
  /// `<directory>/row_<index>.srw`. The directory must exist and be
  /// writable; files are overwritten by clear() and on first use.
  explicit SpecialRowStore(std::string directory);

  /// Saves the H values of matrix row `row` for columns
  /// [first_col, first_col + h.size()). Thread-safe; segments for one row
  /// may arrive from different devices in any order. `f` (the vertical
  /// gap state, same length) is optional: it is required only for rows
  /// intended as restart checkpoints (see MultiDeviceEngine resume); pass
  /// an empty vector when the row is only used for alignment retrieval.
  void save_segment(std::int64_t row, std::int64_t first_col,
                    std::vector<sw::Score> h,
                    std::vector<sw::Score> f = {});

  /// Assembles the F values of one full row; requires every segment of
  /// that row to have been saved with F data.
  [[nodiscard]] std::vector<sw::Score> assemble_row_f(
      std::int64_t row, std::int64_t expected_cols) const;

  /// Sorted list of saved row indices.
  [[nodiscard]] std::vector<std::int64_t> rows() const;

  /// Largest saved row below `limit_row` that can seed a restart: its
  /// segments tile [0, expected_cols) exactly and every segment carries
  /// F data. Rows that fail the probe are skipped, so recovery falls back
  /// to the newest *intact* checkpoint: an incomplete row (the run died
  /// while devices were still saving) or one without F is expected and
  /// logged at info level; a disk row failing its CRC or read is logged
  /// as a warning. Never throws for a bad row. Returns -1 when no row
  /// qualifies.
  [[nodiscard]] std::int64_t last_restartable_row(
      std::int64_t expected_cols,
      std::int64_t limit_row =
          std::numeric_limits<std::int64_t>::max()) const;

  /// Assembles one full row. Throws InternalError when the saved segments
  /// do not tile [0, expected_cols) exactly.
  [[nodiscard]] std::vector<sw::Score> assemble_row(
      std::int64_t row, std::int64_t expected_cols) const;

  /// Outcome of recover_existing(): what survived on disk and how much
  /// torn tail was cut away.
  struct RecoveryReport {
    std::int64_t rows = 0;             // row files with >= 1 intact record
    std::int64_t segments = 0;         // intact records registered
    std::int64_t truncated_bytes = 0;  // torn/corrupt tail bytes removed
  };

  /// Revives a disk store from whatever a previous process left in the
  /// directory (crash recovery): scans every `row_<n>.srw`, keeps each
  /// file's longest prefix of CRC-intact records, truncates the torn or
  /// corrupt tail in place (a record after a bad one is unreachable by
  /// the sequential reader anyway), and deletes files with no intact
  /// record. Disk mode only; call before any save_segment.
  RecoveryReport recover_existing();

  /// Total payload bytes currently stored (RAM or disk).
  [[nodiscard]] std::int64_t bytes() const;

  [[nodiscard]] bool spills_to_disk() const { return !directory_.empty(); }

  /// Drops all rows; removes spill files in disk mode.
  void clear();

 private:
  struct Segment {
    std::int64_t first_col;
    std::vector<sw::Score> h;
    std::vector<sw::Score> f;  // empty unless saved as a checkpoint
  };

  [[nodiscard]] std::string row_path(std::int64_t row) const;
  void append_to_disk(std::int64_t row, std::int64_t first_col,
                      const std::vector<sw::Score>& h,
                      const std::vector<sw::Score>& f);
  [[nodiscard]] std::vector<Segment> read_from_disk(std::int64_t row) const;
  [[nodiscard]] std::vector<Segment> row_segments(std::int64_t row) const;
  /// The row's segments sorted by column, the latest save per column
  /// winning. Caller holds mu_.
  [[nodiscard]] std::vector<Segment> latest_segments(std::int64_t row) const;
  /// True when `segments` (sorted) tile [0, expected_cols) without gaps
  /// and every one carries F data.
  [[nodiscard]] static bool restartable(const std::vector<Segment>& segments,
                                        std::int64_t expected_cols);
  [[nodiscard]] std::vector<sw::Score> assemble(std::int64_t row,
                                                std::int64_t expected_cols,
                                                bool want_f) const;

  mutable std::mutex mu_;
  std::string directory_;  // empty = in-memory mode
  std::map<std::int64_t, std::vector<Segment>> rows_;  // in-memory mode
  std::map<std::int64_t, std::int64_t> disk_rows_;     // row -> bytes
  std::int64_t bytes_ = 0;
};

}  // namespace mgpusw::core
