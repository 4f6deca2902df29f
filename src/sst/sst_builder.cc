#include "sst/sst_builder.h"

#include <cassert>

#include "util/crc32c.h"

namespace laser {

SstBuilder::SstBuilder(const SstBuildOptions& options,
                       std::unique_ptr<WritableFile> file)
    : options_(options),
      file_(std::move(file)),
      data_block_(options.restart_interval),
      index_block_(1),
      filter_(options.bloom_bits_per_key) {
  props_.smallest_seq = kMaxSequenceNumber;
  zone_accum_.resize(options_.zone_columns.size());
  zone_fold_.resize(options_.zone_columns.size());

  // Layout of a complete row: every presence bit set, each value at a fixed
  // offset. Only usable when every width is one the walk accepts.
  const size_t num_cols = options_.zone_columns.size();
  zone_full_bitmap_.assign((num_cols + 7) / 8, '\0');
  zone_full_size_ = zone_full_bitmap_.size();
  zone_full_offsets_.reserve(num_cols);
  for (size_t i = 0; i < num_cols; ++i) {
    zone_full_bitmap_[i / 8] |= static_cast<char>(1 << (i % 8));
    const uint32_t width = options_.zone_columns[i].width;
    if (width != 4 && width != 8) zone_full_row_ok_ = false;
    zone_full_offsets_.push_back(static_cast<uint32_t>(zone_full_size_));
    zone_full_size_ += width;
  }
}

void SstBuilder::Add(const Slice& internal_key, const Slice& value) {
  if (!status_.ok()) return;

  if (pending_index_entry_) {
    // The previous block is complete; index it by its last key.
    index_block_.Add(Slice(pending_index_key_), [this] {
      std::string handle;
      pending_handle_.EncodeTo(&handle);
      return handle;
    }());
    pending_index_entry_ = false;
  }

  if (smallest_key_.empty()) smallest_key_ = internal_key.ToString();
  largest_key_.assign(internal_key.data(), internal_key.size());

  filter_.AddKey(ExtractUserKey(internal_key));
  const SequenceNumber seq = ExtractSequence(internal_key);
  if (seq < props_.smallest_seq) props_.smallest_seq = seq;
  if (seq > props_.largest_seq) props_.largest_seq = seq;
  props_.num_entries++;
  props_.raw_key_bytes += internal_key.size();
  props_.raw_value_bytes += value.size();

  if (zone_valid_ && !options_.zone_columns.empty()) {
    AccumulateZone(internal_key, value);
  }

  data_block_.Add(internal_key, value);
  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    FlushDataBlock();
  }
}

void SstBuilder::AccumulateZone(const Slice& internal_key, const Slice& value) {
  const Slice user_key = ExtractUserKey(internal_key);
  if (user_key.size() != 8) {
    zone_valid_ = false;
    zone_blocks_.clear();
    return;
  }
  const uint64_t key = DecodeKey64(user_key);

  if (!zone_block_open_) {
    zone_block_open_ = true;
    zone_current_.first_user_key = key;
    zone_current_.self_contained = true;
    zone_current_.single_version = true;
    zone_current_.num_entries = 0;
    zone_current_.largest_seq = 0;
    for (ZoneFold& fold : zone_fold_) fold = ZoneFold{};
    // A user key straddling a block boundary ties the two blocks together:
    // neither may be skipped without the other (the winning version of the
    // straddling key could live in either).
    if (!zone_blocks_.empty() && zone_blocks_.back().last_user_key == key) {
      zone_blocks_.back().self_contained = false;
      zone_current_.self_contained = false;
    }
  } else if (zone_current_.last_user_key == key) {
    // A second version of a key inside the block: an aggregation fold would
    // over-count the key, so the block loses single_version.
    zone_current_.single_version = false;
  }
  zone_current_.last_user_key = key;
  zone_current_.num_entries++;
  const SequenceNumber entry_seq = ExtractSequence(internal_key);
  if (entry_seq > zone_current_.largest_seq) {
    zone_current_.largest_seq = entry_seq;
  }

  if (ExtractValueType(internal_key) == kTypeDeletion) {
    // A tombstone materializes no row; folds must not count it.
    zone_current_.single_version = false;
    return;
  }

  // Row payload: presence bitmap over the full column-group set, then the
  // present columns' fixed-width LE values in order (RowCodec's layout,
  // re-derived here from zone_columns so the sst layer needs no laser
  // dependency).
  const size_t num_cols = options_.zone_columns.size();
  const size_t bitmap_bytes = zone_full_bitmap_.size();
  if (value.size() < bitmap_bytes) {
    zone_valid_ = false;
    zone_blocks_.clear();
    return;
  }
  const char* bitmap = value.data();

  // Complete row: every value sits at a fixed offset.
  bool complete = zone_full_row_ok_ && value.size() >= zone_full_size_;
  for (size_t b = 0; complete && b < bitmap_bytes; ++b) {
    complete = (bitmap[b] & zone_full_bitmap_[b]) == zone_full_bitmap_[b];
  }
  if (complete) {
    for (size_t i = 0; i < num_cols; ++i) {
      const char* src = value.data() + zone_full_offsets_[i];
      zone_fold_[i].Add(options_.zone_columns[i].width == 4 ? DecodeFixed32(src)
                                                             : DecodeFixed64(src));
    }
    return;
  }

  // Partial row: walk the presence bitmap.
  const char* cursor = value.data() + bitmap_bytes;
  const char* end = value.data() + value.size();
  for (size_t i = 0; i < num_cols; ++i) {
    if (((bitmap[i / 8] >> (i % 8)) & 1) == 0) continue;
    const uint32_t width = options_.zone_columns[i].width;
    if (cursor + width > end || (width != 4 && width != 8)) {
      zone_valid_ = false;
      zone_blocks_.clear();
      return;
    }
    zone_fold_[i].Add(width == 4 ? DecodeFixed32(cursor) : DecodeFixed64(cursor));
    cursor += width;
  }
}

void SstBuilder::FlushDataBlock() {
  if (data_block_.empty() || !status_.ok()) return;
  Slice contents = data_block_.Finish();
  WriteBlock(contents, options_.compression, &pending_handle_);
  data_block_.Reset();
  pending_index_key_ = largest_key_;
  pending_index_entry_ = true;

  if (zone_block_open_) {
    zone_block_open_ = false;
    if (zone_valid_) {
      zone_current_.block_offset = pending_handle_.offset;
      zone_current_.cols.clear();
      for (size_t i = 0; i < zone_accum_.size(); ++i) {
        // A column with no values in this block keeps the previous block's
        // min/max (has_values tells readers to ignore them).
        ZoneMapColumn& col = zone_accum_[i];
        const ZoneFold& fold = zone_fold_[i];
        col.column = options_.zone_columns[i].column;
        col.has_values = fold.count > 0;
        if (col.has_values) {
          col.min = fold.lo;
          col.max = fold.hi;
        }
        col.count = fold.count;
        col.sum = fold.sum;
        zone_current_.cols.push_back(col);
      }
      zone_blocks_.push_back(zone_current_);
    }
  }
}

void SstBuilder::WriteBlock(const Slice& contents, CompressionType type,
                            BlockHandle* handle) {
  Slice block_contents = contents;
  char tag = static_cast<char>(CompressionType::kNone);
  if (type == CompressionType::kLightLZ) {
    LightLZCompress(contents, &compression_scratch_);
    // Keep compression only when it actually saves space (RocksDB does the
    // same with its 87.5% threshold).
    if (compression_scratch_.size() < contents.size() * 7 / 8) {
      block_contents = Slice(compression_scratch_);
      tag = static_cast<char>(CompressionType::kLightLZ);
    }
  }

  handle->offset = offset_;
  handle->size = block_contents.size();

  status_ = file_->Append(block_contents);
  if (!status_.ok()) return;

  char trailer[kBlockTrailerSize];
  trailer[0] = tag;
  uint32_t crc = crc32c::Value(block_contents.data(), block_contents.size());
  crc = crc32c::Extend(crc, trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  status_ = file_->Append(Slice(trailer, kBlockTrailerSize));
  if (status_.ok()) {
    offset_ += block_contents.size() + kBlockTrailerSize;
  }
}

Status SstBuilder::Finish() {
  FlushDataBlock();
  if (!status_.ok()) return status_;

  Footer footer;

  // Filter block (never compressed: it is random bits). A level allocated
  // zero filter bits writes no block at all; the footer's filter handle
  // stays zero and readers treat every key as a possible match.
  std::string filter_contents = filter_.Finish();
  if (!filter_contents.empty()) {
    WriteBlock(Slice(filter_contents), CompressionType::kNone,
               &footer.filter_handle);
    if (!status_.ok()) return status_;
  }
  props_.filter_bytes = filter_contents.size();

  // Properties block.
  std::string props_contents;
  props_.EncodeTo(&props_contents);
  WriteBlock(Slice(props_contents), CompressionType::kNone, &footer.props_handle);
  if (!status_.ok()) return status_;

  // Zone-map block (uncompressed; absent => zero handle in the footer).
  if (zone_valid_ && !zone_blocks_.empty()) {
    ZoneMaps zones;
    zones.blocks = std::move(zone_blocks_);
    std::string zone_contents;
    zones.EncodeTo(&zone_contents);
    WriteBlock(Slice(zone_contents), CompressionType::kNone, &footer.zone_handle);
    if (!status_.ok()) return status_;
  }

  // Index block.
  if (pending_index_entry_) {
    std::string handle;
    pending_handle_.EncodeTo(&handle);
    index_block_.Add(Slice(pending_index_key_), Slice(handle));
    pending_index_entry_ = false;
  }
  WriteBlock(index_block_.Finish(), CompressionType::kNone, &footer.index_handle);
  if (!status_.ok()) return status_;

  // Footer.
  std::string footer_encoding;
  footer.EncodeTo(&footer_encoding);
  status_ = file_->Append(Slice(footer_encoding));
  if (!status_.ok()) return status_;
  offset_ += footer_encoding.size();

  status_ = file_->Flush();
  return status_;
}

}  // namespace laser
