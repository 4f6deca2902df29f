// Manifest: crash-safe persistence of the Version (file layout) plus the
// next-file-number and last-sequence counters. A full snapshot is written to
// MANIFEST.tmp and atomically renamed over MANIFEST after every flush or
// compaction install — simpler than an edit log and equally recoverable at
// this scale.

#ifndef LASER_LSM_MANIFEST_H_
#define LASER_LSM_MANIFEST_H_

#include <memory>
#include <string>

#include "lsm/version.h"
#include "util/env.h"

namespace laser {

struct ManifestData {
  std::shared_ptr<Version> version;
  uint64_t next_file_number = 1;
  uint64_t last_sequence = 0;
  uint64_t wal_number = 0;  // WAL file covering the current memtable
  /// Design the advisor wants the tree morphed into. Persisted alongside the
  /// current design carried by `version` so a crash mid-morph
  /// resumes converging instead of reverting. num_levels() == 0 means no
  /// morph is in flight.
  CgConfig target_design;
};

class Manifest {
 public:
  Manifest(Env* env, std::string db_path);

  /// Writes a snapshot of `data` atomically.
  Status Save(const ManifestData& data);

  /// Loads the manifest; opens an SstReader for every referenced file.
  /// `cache`/`stats` are wired into the readers. Returns NotFound if no
  /// manifest exists.
  Status Load(BlockCache* cache, Stats* stats, ManifestData* data);

  bool Exists() const;

 private:
  std::string FilePath() const { return db_path_ + "/MANIFEST"; }
  std::string TempPath() const { return db_path_ + "/MANIFEST.tmp"; }

  Env* env_;
  std::string db_path_;
};

}  // namespace laser

#endif  // LASER_LSM_MANIFEST_H_
