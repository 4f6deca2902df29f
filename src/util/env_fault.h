// FaultInjectionEnv: an Env decorator that makes crash recovery testable.
//
// Three capabilities (in the spirit of RocksDB's FaultInjectionTestFS):
//   1. Every mutating filesystem operation (create/append/sync/close/rename/
//      remove/mkdir/rmdir) is counted and recorded, so a test can enumerate
//      crash points deterministically and replay the same schedule.
//   2. Faults: CrashAfterOps(n) simulates power loss — n more mutating ops
//      succeed, then every operation fails until ClearFaults();
//      FailOperation(k) fails exactly one upcoming mutating op (or the next
//      op of a given kind on a given file), modelling a transient I/O error
//      that the caller must surface as a Status.
//   3. Durability: appended bytes become durable only when the file is
//      synced. DropUnsyncedData() reverts the backing filesystem to the
//      durable image — what a process sees after crash + reboot.
//      Snapshot/RestoreDurableState replay recovery repeatedly from one
//      crash image.
//
// Durability model (deterministic, adversarial):
//   - Appended bytes are volatile until a Sync() on that file succeeds;
//     Close() without Sync() does NOT make data durable.
//   - NewWritableFile's truncation is volatile too: on crash, a file whose
//     recreation was never synced reverts to its previous durable content
//     (or disappears if it never had any).
//   - RenameFile and RemoveFile are metadata operations, applied to the
//     durable image immediately. The engine syncs file contents before
//     renaming (MANIFEST.tmp), so this matches the journaled-metadata
//     filesystems it targets.
//   - CreateDir/RemoveDir are durable immediately.

#ifndef LASER_UTIL_ENV_FAULT_H_
#define LASER_UTIL_ENV_FAULT_H_

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "util/env.h"

namespace laser {

class FaultInjectionEnv final : public Env {
 public:
  enum class OpKind {
    kCreate,
    kAppend,
    kSync,
    kClose,
    kRename,
    kRemove,
    kCreateDir,
    kRemoveDir,
  };

  struct OpRecord {
    OpKind kind;
    std::string fname;
  };

  /// The durable file image: fname -> contents as of its last sync (with
  /// renames/removes applied). Opaque to callers; pass it back to
  /// RestoreDurableState.
  struct DurableState {
    std::map<std::string, std::string> files;
  };

  /// Does not take ownership of `base`; it must outlive this Env.
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  // -- fault scheduling --

  /// The next `n` mutating operations succeed; the one after them and every
  /// operation thereafter (including reads) fails with IOError, as if the
  /// process lost power. n == 0 fails the very next mutating op.
  void CrashAfterOps(uint64_t n);

  /// Fails exactly the k-th upcoming mutating operation (k == 0 is the next
  /// one); operations before and after it succeed.
  void FailOperation(uint64_t k);

  /// Fails exactly the next `kind` operation on `fname`, at whatever index it
  /// comes — for an op whose place in the stream is not fixed, such as a sync
  /// run by a background I/O helper.
  void FailOperation(OpKind kind, const std::string& fname);

  /// Clears kill switch and pending one-shot failures.
  void ClearFaults();

  /// True once the CrashAfterOps threshold has been hit.
  bool killed() const;

  // -- op accounting --

  /// Number of mutating operations that were admitted (attempted before any
  /// kill). Deterministic for a deterministic workload.
  uint64_t mutating_ops() const;

  /// The admitted mutating operations, in order.
  std::vector<OpRecord> history() const;

  // -- durable-state control --

  /// Reverts the base filesystem to the durable image: every tracked file is
  /// rewritten with its last-synced contents or removed if it has none.
  /// Call after destroying the database and before reopening.
  void DropUnsyncedData();

  DurableState SnapshotDurableState() const;

  /// Overwrites both the durable image and the base filesystem with `state`.
  void RestoreDurableState(const DurableState& state);

  // -- Env interface --

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src, const std::string& target) override;
  uint64_t NowMicros() override { return base_->NowMicros(); }

  // -- internals shared with the writable-file wrapper --

  /// Admits or rejects one mutating op; records it when admitted.
  Status BeginMutation(OpKind kind, const std::string& fname);
  /// Rejects every op once killed (used by read paths).
  Status CheckAlive(const std::string& fname) const;
  /// Captures `fname`'s current base contents as its durable image.
  void MarkDurable(const std::string& fname);

 private:
  Env* const base_;

  mutable std::mutex mu_;
  uint64_t ops_ = 0;
  bool killed_ = false;
  std::optional<uint64_t> kill_at_;   // absolute op index that kills
  std::optional<uint64_t> fail_at_;   // absolute op index that fails once
  std::optional<OpRecord> fail_op_;   // (kind, fname) that fails once
  std::vector<OpRecord> history_;
  std::map<std::string, std::string> durable_;
  /// Every file name ever created/renamed through this Env (union with
  /// durable_ keys = the universe DropUnsyncedData reconciles).
  std::set<std::string> tracked_;
};

}  // namespace laser

#endif  // LASER_UTIL_ENV_FAULT_H_
