// Shared test scaffolding: the tiny-tree engine options every end-to-end
// suite uses (small buffers so a few thousand rows exercise flush and every
// compaction level), the §7.2 design-matrix parameterization, the
// deterministic row builder the reference-model checks assume, and an Env
// decorator that hooks file syncs.

#ifndef LASER_TESTS_TEST_UTIL_H_
#define LASER_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "laser/laser_db.h"
#include "util/env.h"

namespace laser::test {

/// A design-matrix point: cg_size 0 = row-only, 1 = columnar, k = equi-width
/// k, -1 = HTAP-simple (used with testing::TestWithParam for §7.2 sweeps).
struct DesignParam {
  std::string name;
  int cg_size;
};

inline CgConfig DesignConfig(const DesignParam& param, int columns,
                             int levels) {
  if (param.cg_size == 0) return CgConfig::RowOnly(columns, levels);
  if (param.cg_size == -1) return CgConfig::HtapSimple(columns, levels, 3);
  return CgConfig::EquiWidth(columns, levels, param.cg_size);
}

/// Engine options for a tiny LSM-tree backed by `env` at `path`: 16KB write
/// buffer / 1KB blocks so flushes and multi-level compactions happen within
/// a few thousand inserts.
inline LaserOptions TinyTreeOptions(Env* env, const std::string& path,
                                    int columns, int levels) {
  LaserOptions options;
  options.env = env;
  options.path = path;
  options.schema = Schema::UniformInt32(columns);
  options.num_levels = levels;
  options.size_ratio = 2;
  options.write_buffer_size = 16 * 1024;  // tiny: force flushes
  options.level0_bytes = 32 * 1024;
  options.target_sst_size = 16 * 1024;
  options.block_size = 1024;
  return options;
}

/// Deterministic full row for `key`: column c (1-based) holds key*100 + c,
/// so any cell can be recomputed from (key, column) when verifying reads.
inline std::vector<ColumnValue> TestRow(uint64_t key, int columns) {
  std::vector<ColumnValue> row(columns);
  for (int c = 0; c < columns; ++c) {
    row[c] = key * 100 + static_cast<uint64_t>(c + 1);
  }
  return row;
}

/// An Env decorator that runs `before_sync(fname)` ahead of every
/// WritableFile::Sync, then forwards it. A sleeping hook stretches the fsync
/// window so concurrent writers pile up behind the group-commit leader, the
/// way a real disk does; a blocking hook holds a sync until a test's
/// threads reach a given point.
class SyncHookEnv : public Env {
 public:
  using Hook = std::function<void(const std::string& fname)>;

  SyncHookEnv(Env* base, Hook before_sync)
      : base_(base), before_sync_(std::move(before_sync)) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    LASER_RETURN_IF_ERROR(base_->NewWritableFile(fname, &file));
    *result = std::make_unique<HookedFile>(std::move(file), fname, &before_sync_);
    return Status::OK();
  }
  bool FileExists(const std::string& fname) override { return base_->FileExists(fname); }
  Status GetChildren(const std::string& dir, std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }

 private:
  class HookedFile : public WritableFile {
   public:
    HookedFile(std::unique_ptr<WritableFile> base, std::string fname, const Hook* hook)
        : base_(std::move(base)), fname_(std::move(fname)), hook_(hook) {}

    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      (*hook_)(fname_);
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    const std::string fname_;
    const Hook* const hook_;
  };

  Env* const base_;
  const Hook before_sync_;
};

}  // namespace laser::test

#endif  // LASER_TESTS_TEST_UTIL_H_
