// SstBuilder: serializes a sorted run of internal-key entries into one SST
// file: 4KB data blocks (delta-encoded keys, optional compression), a bloom
// filter over user keys, a properties block and an index block.

#ifndef LASER_SST_SST_BUILDER_H_
#define LASER_SST_SST_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "lsm/dbformat.h"
#include "sst/block_builder.h"
#include "sst/bloom.h"
#include "sst/format.h"
#include "util/codec.h"
#include "util/env.h"

namespace laser {

/// Build-time knobs; defaults mirror RocksDB's (4KB blocks, bloom 10 bits).
struct SstBuildOptions {
  size_t block_size = 4096;
  int restart_interval = 16;
  CompressionType compression = CompressionType::kNone;
  /// Fractional per-key filter budget for this file's level (Monkey hands
  /// deep levels non-integer allocations); <= 0 builds no filter block.
  double bloom_bits_per_key = 10;

  /// One summarized column of the file's row payloads: schema column id plus
  /// its fixed value width in bytes (4 or 8).
  struct ZoneColumnSpec {
    uint32_t column = 0;
    uint32_t width = 0;
  };
  /// The column-group's FULL column set in storage order; row payloads are
  /// `presence bitmap over this list | fixed-width values of present
  /// columns`. When non-empty the builder accumulates per-block min/max per
  /// column and writes a zone-map block (scan-side block skipping). Empty =>
  /// no zone maps (the footer's zone handle stays zero).
  std::vector<ZoneColumnSpec> zone_columns;
};

class SstBuilder {
 public:
  /// Takes ownership of `file`.
  SstBuilder(const SstBuildOptions& options, std::unique_ptr<WritableFile> file);
  ~SstBuilder() = default;

  SstBuilder(const SstBuilder&) = delete;
  SstBuilder& operator=(const SstBuilder&) = delete;

  /// Adds an entry. REQUIRES: internal key ordering, no duplicates.
  void Add(const Slice& internal_key, const Slice& value);

  /// Finalizes the file (filter, properties, index, footer) and flushes it
  /// to the OS, so a reader sees the whole file. It does not sync or close
  /// the file: durability is the caller's (see ReleaseFile).
  Status Finish();

  /// Hands the file over, e.g. to be synced and closed off the caller's
  /// thread. REQUIRES: Finish() returned OK.
  std::unique_ptr<WritableFile> ReleaseFile() { return std::move(file_); }

  /// Final file size. REQUIRES: Finish() returned OK.
  uint64_t FileSize() const { return offset_; }

  uint64_t NumEntries() const { return props_.num_entries; }
  const SstProperties& properties() const { return props_; }
  const std::string& smallest_key() const { return smallest_key_; }
  const std::string& largest_key() const { return largest_key_; }
  Status status() const { return status_; }

 private:
  /// One column's fold over the open data block. lo/hi start at the
  /// identities of min/max, so folding a value needs no branch.
  struct ZoneFold {
    uint64_t lo = ~uint64_t{0};
    uint64_t hi = 0;
    uint64_t count = 0;
    uint64_t sum = 0;

    void Add(uint64_t v) {
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
      ++count;
      sum += v;
    }
  };

  void FlushDataBlock();
  /// Writes `contents` with the block trailer; sets *handle.
  void WriteBlock(const Slice& contents, CompressionType type, BlockHandle* handle);
  /// Folds one entry into the open block's zone accumulators. Any payload
  /// the zone_columns layout cannot explain disables zone maps for the whole
  /// file (safe fallback: readers scan every block).
  void AccumulateZone(const Slice& internal_key, const Slice& value);

  SstBuildOptions options_;
  std::unique_ptr<WritableFile> file_;
  uint64_t offset_ = 0;
  Status status_;

  BlockBuilder data_block_;
  BlockBuilder index_block_;
  BloomFilterBuilder filter_;
  SstProperties props_;

  std::string smallest_key_;  // first internal key added
  std::string largest_key_;   // last internal key added
  std::string pending_index_key_;
  BlockHandle pending_handle_;
  bool pending_index_entry_ = false;
  std::string compression_scratch_;

  // Zone-map accumulation (active while zone_valid_ && !zone_columns.empty()).
  bool zone_valid_ = true;
  bool zone_block_open_ = false;
  ZoneMapEntry zone_current_;               // cols stay empty until flush
  std::vector<ZoneFold> zone_fold_;         // open block, parallel to zone_columns
  std::vector<ZoneMapColumn> zone_accum_;   // last flushed summary per column
  std::vector<ZoneMapEntry> zone_blocks_;   // finished blocks, file order
  // Complete-row layout over zone_columns: the all-present bitmap, the row's
  // byte size, each value's offset, and whether every width is 4 or 8 (the
  // fixed-offset path is taken only then).
  std::string zone_full_bitmap_;
  size_t zone_full_size_ = 0;
  std::vector<uint32_t> zone_full_offsets_;
  bool zone_full_row_ok_ = true;
};

}  // namespace laser

#endif  // LASER_SST_SST_BUILDER_H_
