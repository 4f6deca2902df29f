// RowCodec: encoding of (partial) rows within a column group.
//
// Layout for a CG with columns S (sorted): a presence bitmap of |S| bits,
// then the fixed-width values of the present columns in S order. Full rows
// have every bit set; partial rows (§4.2 column updates) a subset. The key
// is *not* part of the value — it lives in the internal key, which is the
// "simulated columnar" overhead the paper analyses in §4.1/§5.

#ifndef LASER_LASER_ROW_CODEC_H_
#define LASER_LASER_ROW_CODEC_H_

#include <cstring>
#include <string>
#include <vector>

#include "laser/schema.h"
#include "util/slice.h"
#include "util/status.h"

namespace laser {

/// Presence-bitmap helpers of the row layout: bit i of the bitmap is set
/// when the CG's i-th column is present.
namespace row_bitmap {
inline size_t Bytes(size_t columns) { return (columns + 7) / 8; }
inline bool Test(const char* bitmap, size_t i) { return (bitmap[i / 8] >> (i % 8)) & 1; }
inline void Set(char* bitmap, size_t i) {
  bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
}
/// True iff bits [0, columns) are all set; later bits are ignored.
bool AllSet(const char* bitmap, size_t columns);
}  // namespace row_bitmap

/// Byte layout for re-encoding rows of one CG (`from`) as rows of another
/// (`to`), computed once per CG pair. A complete source row has every value
/// at a fixed offset, so it projects with one memcpy per contiguous run of
/// kept columns and a precomputed presence bitmap; a partial row takes one
/// walk over its presence bitmap. Neither path decodes a value. The output
/// is byte-for-byte what decoding, filtering to `to` and re-encoding gives.
/// Built by RowCodec::PlanProjection.
class ProjectionPlan {
 public:
  /// Re-encodes `data`, a row of `from`, for `to` into *out (replacing its
  /// contents; must not alias `data`). Returns the number of columns present
  /// in the result, which may be 0 when the row carries none of `to`'s
  /// columns.
  int Apply(const Slice& data, std::string* out) const;

  /// True when `from` == `to`: rows pass through unchanged.
  bool identity() const { return identity_; }

 private:
  friend class RowCodec;
  ProjectionPlan(const Schema& schema, const ColumnSet& from, const ColumnSet& to);

  struct SourceColumn {
    int target;      // index in `to`, or -1 when `to` drops the column
    uint32_t width;  // value bytes
  };
  struct CopyRun {
    uint32_t src_offset;  // in a complete source row
    uint32_t length;      // bytes; appended to the output in run order
  };

  bool identity_;
  size_t from_bitmap_bytes_;
  size_t to_bitmap_bytes_;
  std::vector<SourceColumn> from_columns_;
  size_t from_full_size_;  // bytes of a complete `from` row
  // Output of a complete source row: bitmap, then the runs' bytes.
  std::string complete_bitmap_;
  std::vector<CopyRun> complete_runs_;
  size_t complete_size_;
  int complete_present_;
};

class RowCodec {
 public:
  explicit RowCodec(const Schema* schema) : schema_(schema) {}

  /// Encodes `values` (sorted by column id; every column must be in `cg`).
  std::string Encode(const ColumnSet& cg,
                     const std::vector<ColumnValuePair>& values) const;

  /// Decodes an encoded row, appending present (column, value) pairs.
  Status Decode(const ColumnSet& cg, const Slice& data,
                std::vector<ColumnValuePair>* values) const;

  /// Zero-materialization decode for the scan hot path: calls
  /// `fn(index_in_cg, value)` for every present column, in CG order, without
  /// building a pair vector. A malformed row returns non-OK with fn never
  /// called (all-or-nothing, like Decode): the bitmap is sized against the
  /// payload before any value is emitted.
  template <typename Fn>
  Status DecodeForEach(const ColumnSet& cg, const Slice& data, Fn&& fn) const {
    const size_t bitmap_bytes = row_bitmap::Bytes(cg.size());
    if (data.size() < bitmap_bytes) return Status::Corruption("row too short");
    const char* bitmap = data.data();
    size_t needed = bitmap_bytes;
    for (size_t i = 0; i < cg.size(); ++i) {
      if (row_bitmap::Test(bitmap, i)) needed += schema_->value_size(cg[i]);
    }
    if (data.size() < needed) return Status::Corruption("row value overrun");
    const char* p = data.data() + bitmap_bytes;
    for (size_t i = 0; i < cg.size(); ++i) {
      if (!row_bitmap::Test(bitmap, i)) continue;
      fn(i, DecodeValue(cg[i], p));
      p += schema_->value_size(cg[i]);
    }
    return Status::OK();
  }

  /// True iff every column of `cg` is present in `data`.
  bool IsComplete(const ColumnSet& cg, const Slice& data) const;

  /// Merges two encodings of the same CG into *out (replacing its contents;
  /// must not alias either input): `newer` wins on columns present in both;
  /// the union of presence is kept (the §4.2 compaction merge). Works on the
  /// encoded bytes: no value is decoded.
  void Merge(const ColumnSet& cg, const Slice& newer, const Slice& older,
             std::string* out) const;

  /// Precomputes how rows of `from` re-encode as rows of `to` (see
  /// ProjectionPlan). Build once per CG pair, apply per row.
  ProjectionPlan PlanProjection(const ColumnSet& from, const ColumnSet& to) const;

  /// One-shot PlanProjection(from, to).Apply(data): keeps whatever columns of
  /// `to` are present in a row encoded for `from` (their intersection at
  /// most; no containment required). This is what lets compaction and
  /// design morphing move rows between arbitrary layouts: fragments
  /// re-encoded this way recombine via Merge when they meet.
  std::string Reproject(const ColumnSet& from, const ColumnSet& to,
                        const Slice& data) const;

  /// Number of present columns in an encoded row.
  int PresentCount(const ColumnSet& cg, const Slice& data) const;

  /// Byte size of a full row for this CG (bitmap + all values).
  size_t FullRowSize(const ColumnSet& cg) const;

  /// On-disk width of one column's value.
  size_t ValueWidth(int column) const { return schema_->value_size(column); }

  /// Inline with fixed-width fast paths: runs once per value in scan decode.
  ColumnValue DecodeValue(int column, const char* src) const {
    switch (schema_->value_size(column)) {
      case 4: {
        uint32_t v;
        memcpy(&v, src, sizeof(v));  // little-endian hosts only (see coding.h)
        return v;
      }
      default: {
        uint64_t v;
        memcpy(&v, src, sizeof(v));
        return v;
      }
    }
  }

 private:
  /// Writes a value at `dst` using the column's width.
  void EncodeValue(int column, ColumnValue value, std::string* dst) const;

  const Schema* schema_;
};

/// Convenience: full-row pairs (1..c) from a plain vector of c values.
std::vector<ColumnValuePair> MakeFullRow(const std::vector<ColumnValue>& values);

}  // namespace laser

#endif  // LASER_LASER_ROW_CODEC_H_
