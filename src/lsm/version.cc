#include "lsm/version.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace laser {

std::string SstFileName(uint64_t file_number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%08llu.sst",
           static_cast<unsigned long long>(file_number));
  return buf;
}

std::string WalFileName(uint64_t file_number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%08llu.wal",
           static_cast<unsigned long long>(file_number));
  return buf;
}

std::shared_ptr<Version> Version::Empty(CgConfig design) {
  auto v = std::make_shared<Version>();
  v->files_.resize(design.num_levels());
  for (int level = 0; level < design.num_levels(); ++level) {
    v->files_[level].resize(design.num_groups(level));
  }
  v->design_ = std::move(design);
  return v;
}

std::shared_ptr<Version> Version::Empty(int num_levels,
                                        const std::vector<int>& groups_per_level) {
  std::vector<std::vector<ColumnSet>> levels(num_levels);
  for (int level = 0; level < num_levels; ++level) {
    for (int group = 0; group < groups_per_level[level]; ++group) {
      levels[level].push_back({group + 1});
    }
  }
  return Empty(CgConfig(std::move(levels)));
}

std::shared_ptr<Version> Version::Clone() const {
  auto v = std::make_shared<Version>();
  v->files_ = files_;
  v->design_ = design_;
  return v;
}

uint64_t Version::GroupBytes(int level, int group) const {
  uint64_t total = 0;
  for (const auto& f : files_[level][group]) total += f->file_size;
  return total;
}

uint64_t Version::GroupDataBytes(int level, int group) const {
  uint64_t total = 0;
  for (const auto& f : files_[level][group]) {
    const uint64_t filter = std::min(f->props.filter_bytes, f->file_size);
    total += f->file_size - filter;
  }
  return total;
}

uint64_t Version::GroupEntries(int level, int group) const {
  uint64_t total = 0;
  for (const auto& f : files_[level][group]) total += f->props.num_entries;
  return total;
}

uint64_t Version::TotalBytes() const {
  uint64_t total = 0;
  for (int level = 0; level < num_levels(); ++level) {
    for (int group = 0; group < num_groups(level); ++group) {
      total += GroupBytes(level, group);
    }
  }
  return total;
}

Version::FileList Version::OverlappingFiles(int level, int group, const Slice& lo,
                                            const Slice& hi) const {
  FileList result;
  for (const auto& f : files_[level][group]) {
    if (f->OverlapsUserRange(lo, hi)) result.push_back(f);
  }
  return result;
}

namespace {

/// Index of the file in `run` (a non-overlapping sorted run) whose user-key
/// range contains `user_key`, or run.size() if none.
size_t IndexContaining(const Version::FileList& run, const Slice& user_key) {
  // Binary search: first file with largest_user_key >= user_key.
  size_t lo = 0;
  size_t hi = run.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (run[mid]->largest_user_key().compare(user_key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < run.size() && run[lo]->smallest_user_key().compare(user_key) <= 0) {
    return lo;
  }
  return run.size();
}

}  // namespace

FileMetaData* Version::FileContaining(int level, int group, const Slice& user_key) const {
  const FileList& run = files_[level][group];
  const size_t index = IndexContaining(run, user_key);
  return index < run.size() ? run[index].get() : nullptr;
}

void Version::ReplaceFiles(int level, int group, const FileList& remove,
                           const FileList& add) {
  FileList& run = files_[level][group];
  for (const auto& victim : remove) {
    auto it = std::find_if(run.begin(), run.end(),
                           [&](const std::shared_ptr<FileMetaData>& f) {
                             return f->file_number == victim->file_number;
                           });
    assert(it != run.end());
    run.erase(it);
  }
  run.insert(run.end(), add.begin(), add.end());
  if (level > 0) {
    std::sort(run.begin(), run.end(),
              [](const std::shared_ptr<FileMetaData>& a,
                 const std::shared_ptr<FileMetaData>& b) {
                return Slice(a->smallest).compare(Slice(b->smallest)) < 0;
              });
  }
}

void Version::AddLevel0File(std::shared_ptr<FileMetaData> file) {
  files_[0][0].push_back(std::move(file));
}

void Version::Relayout(CgConfig design) {
  assert(design.num_levels() == num_levels());
  for (int level = 1; level < num_levels(); ++level) {
    assert(std::all_of(files_[level].begin(), files_[level].end(),
                       [](const FileList& run) { return run.empty(); }));
    files_[level].assign(design.num_groups(level), FileList());
  }
  design_ = std::move(design);
}

std::string Version::DebugString() const {
  std::string out;
  char buf[160];
  for (int level = 0; level < num_levels(); ++level) {
    for (int group = 0; group < num_groups(level); ++group) {
      if (files_[level][group].empty()) continue;
      snprintf(buf, sizeof(buf), "L%d.g%d: %zu files, %llu bytes, %llu entries\n",
               level, group, files_[level][group].size(),
               static_cast<unsigned long long>(GroupBytes(level, group)),
               static_cast<unsigned long long>(GroupEntries(level, group)));
      out += buf;
    }
  }
  return out;
}

}  // namespace laser
