#pragma once

/// \file wal.hpp
/// Write-ahead log for the sharded provenance store: append-only segment
/// files written through the shared VFS (so the chaos harness can tear
/// them mid-record), framed records with checksums, and recovery-by-
/// replay that truncates a torn tail at the last valid record.
///
/// Frame layout (all fixed-width fields little-endian host order; the
/// VFS is in-memory, so frames never cross machines):
///
///   [u32 payload_len][u32 checksum][payload]
///
///   payload = op:u8
///           + i0..i4 : 5 x i64     (ids, counts)
///           + d0,d1  : 2 x f64     (timestamps; bit-exact round trip)
///           + s0..s2 : 3 x (u32 len + bytes)
///
/// The checksum is FNV-1a over the payload folded to 32 bits. A frame
/// whose length field runs past the file, or whose checksum mismatches,
/// marks the torn tail: replay stops there and reports the byte count it
/// discarded (DESIGN.md §12).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "vfs/vfs.hpp"

namespace scidock::prov::wal {

/// One provenance mutation. Values map onto the recording API of
/// ProvenanceStore one to one; replay re-applies them in log order.
enum class WalOp : std::uint8_t {
  BeginWorkflow = 1,
  EndWorkflow = 2,
  RegisterActivity = 3,
  BeginActivation = 4,
  EndActivation = 5,
  RecordMachine = 6,
  RecordFile = 7,
  RecordValue = 8,
};

/// Generic record: a tagged union flattened into enough scalar slots for
/// every op (see the per-op field mapping in prov.cpp).
struct WalRecord {
  WalOp op = WalOp::BeginWorkflow;
  long long i0 = 0, i1 = 0, i2 = 0, i3 = 0, i4 = 0;
  double d0 = 0.0, d1 = 0.0;
  std::string s0, s1, s2;

  bool operator==(const WalRecord&) const = default;
};

/// Serialise one record into a framed byte string (appendable as-is).
std::string encode_record(const WalRecord& record);

/// Decode the frame starting at `offset`. On success advances `offset`
/// past the frame and returns true. Returns false — leaving `offset`
/// untouched — on a truncated or corrupt frame (the torn tail).
bool decode_frame(std::string_view data, std::size_t& offset, WalRecord& out);

/// Per-segment replay accounting.
struct SegmentStatus {
  std::string path;
  std::size_t index = 0;
  bool sealed = false;         ///< seg-N.wal (true) vs seg-N.wal.open
  std::size_t bytes = 0;       ///< file size
  std::size_t valid_bytes = 0; ///< prefix holding intact frames
};

struct ShardReplay {
  std::vector<WalRecord> records;
  std::vector<SegmentStatus> segments;
  std::size_t truncated_bytes = 0;  ///< bytes discarded after the torn tail
  std::size_t next_index = 0;       ///< segment index for new appends
};

/// Replay every segment under `dir` in index order, stopping at the
/// first invalid frame (later bytes — and later segments, which cannot
/// legally exist past a torn one — count as truncated). With `repair`,
/// the torn segment is rewritten to its valid prefix, fully-invalid
/// files are removed and a leftover `.open` segment is sealed, so a
/// subsequent replay of the same directory is idempotent.
ShardReplay replay_shard(vfs::SharedFileSystem& fs, const std::string& dir,
                         bool repair);

/// Appends frames to the active `seg-NNNNNN.wal.open` segment under
/// `dir`, sealing it (sync + rename to `.wal`) and starting the next one
/// whenever the size limit is reached. Not thread-safe: only the
/// provenance store's group-commit flusher drives it.
class SegmentWriter {
 public:
  SegmentWriter(vfs::SharedFileSystem& fs, std::string dir,
                std::size_t segment_max_bytes, std::size_t next_index);

  /// Append pre-encoded frames; rotates first when the active segment
  /// would exceed the limit. Propagates TornWriteError (after accounting
  /// the bytes that did land) and any fault-hook exception.
  void append(std::string_view frames, double now);

  /// Durability barrier on the active segment.
  void sync();

  std::size_t rotations() const { return rotations_; }

 private:
  void seal_active(double now);

  vfs::SharedFileSystem& fs_;
  std::string dir_;
  std::size_t segment_max_bytes_;
  std::size_t index_;
  std::string active_path_;
  std::size_t active_bytes_ = 0;
  std::size_t rotations_ = 0;
};

/// "<dir>/seg-NNNNNN.wal" (+ ".open" for the active segment).
std::string segment_path(const std::string& dir, std::size_t index,
                         bool sealed);

}  // namespace scidock::prov::wal
