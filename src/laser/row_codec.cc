#include "laser/row_codec.h"

#include <cassert>
#include <cstring>

namespace laser {

void RowCodec::EncodeValue(int column, ColumnValue value, std::string* dst) const {
  char buf[8];
  const size_t width = schema_->value_size(column);
  // Little-endian truncation to the column width.
  for (size_t i = 0; i < width; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->append(buf, width);
}

std::string RowCodec::Encode(const ColumnSet& cg,
                             const std::vector<ColumnValuePair>& values) const {
  std::string out(row_bitmap::Bytes(cg.size()), '\0');
  size_t vi = 0;
  for (size_t i = 0; i < cg.size(); ++i) {
    if (vi < values.size() && values[vi].column == cg[i]) {
      row_bitmap::Set(out.data(), i);
      EncodeValue(cg[i], values[vi].value, &out);
      ++vi;
    }
  }
  assert(vi == values.size() && "every value's column must be in the CG");
  return out;
}

Status RowCodec::Decode(const ColumnSet& cg, const Slice& data,
                        std::vector<ColumnValuePair>* values) const {
  const size_t bitmap_bytes = row_bitmap::Bytes(cg.size());
  if (data.size() < bitmap_bytes) return Status::Corruption("row too short");
  const char* bitmap = data.data();
  const char* p = data.data() + bitmap_bytes;
  const char* limit = data.data() + data.size();
  for (size_t i = 0; i < cg.size(); ++i) {
    if (!row_bitmap::Test(bitmap, i)) continue;
    const size_t width = schema_->value_size(cg[i]);
    if (p + width > limit) return Status::Corruption("row value overrun");
    values->push_back(ColumnValuePair{cg[i], DecodeValue(cg[i], p)});
    p += width;
  }
  return Status::OK();
}

namespace {

/// Walks the present values of one encoded row in CG order. Mirrors
/// RowCodec::Decode: a row shorter than its bitmap has no values, and a
/// value running past the end stops the walk (it and every later column
/// read as absent).
class PresentCursor {
 public:
  PresentCursor(const Slice& data, size_t bitmap_bytes)
      : bitmap_(data.size() >= bitmap_bytes ? data.data() : nullptr),
        p_(bitmap_ != nullptr ? data.data() + bitmap_bytes : data.data()),
        end_(data.data() + data.size()) {}

  /// Value bytes of column `i` (width `width`) if present, else nullptr.
  /// Must be called for every column in order.
  const char* Take(size_t i, size_t width) {
    if (bitmap_ == nullptr || !row_bitmap::Test(bitmap_, i)) return nullptr;
    if (width > static_cast<size_t>(end_ - p_)) {
      bitmap_ = nullptr;
      return nullptr;
    }
    const char* value = p_;
    p_ += width;
    return value;
  }

 private:
  const char* bitmap_;
  const char* p_;
  const char* end_;
};

}  // namespace

bool row_bitmap::AllSet(const char* bitmap, size_t columns) {
  const unsigned char* bytes = reinterpret_cast<const unsigned char*>(bitmap);
  const size_t full_bytes = columns / 8;
  for (size_t b = 0; b < full_bytes; ++b) {
    if (bytes[b] != 0xff) return false;
  }
  const size_t tail_bits = columns % 8;
  if (tail_bits == 0) return true;
  const unsigned tail_mask = (1u << tail_bits) - 1;
  return (bytes[full_bytes] & tail_mask) == tail_mask;
}

bool RowCodec::IsComplete(const ColumnSet& cg, const Slice& data) const {
  return data.size() >= row_bitmap::Bytes(cg.size()) &&
         row_bitmap::AllSet(data.data(), cg.size());
}

int RowCodec::PresentCount(const ColumnSet& cg, const Slice& data) const {
  const size_t bitmap_bytes = row_bitmap::Bytes(cg.size());
  if (data.size() < bitmap_bytes) return 0;
  int count = 0;
  for (size_t i = 0; i < cg.size(); ++i) {
    count += row_bitmap::Test(data.data(), i) ? 1 : 0;
  }
  return count;
}

void RowCodec::Merge(const ColumnSet& cg, const Slice& newer, const Slice& older,
                     std::string* out) const {
  const size_t bitmap_bytes = row_bitmap::Bytes(cg.size());
  out->assign(bitmap_bytes, '\0');
  PresentCursor n(newer, bitmap_bytes);
  PresentCursor o(older, bitmap_bytes);
  for (size_t i = 0; i < cg.size(); ++i) {
    const size_t width = schema_->value_size(cg[i]);
    const char* from_newer = n.Take(i, width);
    const char* from_older = o.Take(i, width);
    const char* value = from_newer != nullptr ? from_newer : from_older;
    if (value == nullptr) continue;
    row_bitmap::Set(out->data(), i);
    out->append(value, width);
  }
}

ProjectionPlan RowCodec::PlanProjection(const ColumnSet& from,
                                        const ColumnSet& to) const {
  return ProjectionPlan(*schema_, from, to);
}

std::string RowCodec::Reproject(const ColumnSet& from, const ColumnSet& to,
                                const Slice& data) const {
  std::string out;
  PlanProjection(from, to).Apply(data, &out);
  return out;
}

ProjectionPlan::ProjectionPlan(const Schema& schema, const ColumnSet& from,
                               const ColumnSet& to)
    : identity_(from == to),
      from_bitmap_bytes_(row_bitmap::Bytes(from.size())),
      to_bitmap_bytes_(row_bitmap::Bytes(to.size())),
      from_full_size_(from_bitmap_bytes_),
      complete_bitmap_(to_bitmap_bytes_, '\0'),
      complete_size_(to_bitmap_bytes_),
      complete_present_(0) {
  // Both sets are sorted, so one merge walk maps each source column to its
  // target index; kept columns appear in the output in source order.
  from_columns_.reserve(from.size());
  size_t t = 0;
  for (size_t i = 0; i < from.size(); ++i) {
    while (t < to.size() && to[t] < from[i]) ++t;
    const bool kept = t < to.size() && to[t] == from[i];
    const uint32_t width = static_cast<uint32_t>(schema.value_size(from[i]));
    from_columns_.push_back({kept ? static_cast<int>(t) : -1, width});
    if (kept) {
      row_bitmap::Set(complete_bitmap_.data(), t);
      ++complete_present_;
      complete_size_ += width;
      const uint32_t offset = static_cast<uint32_t>(from_full_size_);
      if (!complete_runs_.empty() &&
          complete_runs_.back().src_offset + complete_runs_.back().length == offset) {
        complete_runs_.back().length += width;
      } else {
        complete_runs_.push_back({offset, width});
      }
    }
    from_full_size_ += width;
  }
}

int ProjectionPlan::Apply(const Slice& data, std::string* out) const {
  if (data.size() >= from_full_size_ &&
      row_bitmap::AllSet(data.data(), from_columns_.size())) {
    out->resize(complete_size_);
    char* dst = out->data();
    memcpy(dst, complete_bitmap_.data(), to_bitmap_bytes_);
    dst += to_bitmap_bytes_;
    for (const CopyRun& run : complete_runs_) {
      memcpy(dst, data.data() + run.src_offset, run.length);
      dst += run.length;
    }
    return complete_present_;
  }
  out->assign(to_bitmap_bytes_, '\0');
  PresentCursor cursor(data, from_bitmap_bytes_);
  int present = 0;
  for (size_t i = 0; i < from_columns_.size(); ++i) {
    const SourceColumn& col = from_columns_[i];
    const char* value = cursor.Take(i, col.width);
    if (value == nullptr || col.target < 0) continue;
    row_bitmap::Set(out->data(), static_cast<size_t>(col.target));
    out->append(value, col.width);
    ++present;
  }
  return present;
}

size_t RowCodec::FullRowSize(const ColumnSet& cg) const {
  size_t size = row_bitmap::Bytes(cg.size());
  for (int col : cg) size += schema_->value_size(col);
  return size;
}

std::vector<ColumnValuePair> MakeFullRow(const std::vector<ColumnValue>& values) {
  std::vector<ColumnValuePair> pairs;
  pairs.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    pairs.push_back(ColumnValuePair{static_cast<int>(i + 1), values[i]});
  }
  return pairs;
}

}  // namespace laser
