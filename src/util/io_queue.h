// IoQueue: helper threads that run a database's background file syscalls —
// syncing and closing a finished SST, unlinking an obsolete file — so a
// compaction keeps merging while the device works.
//
// Tasks start in FIFO order. With one helper they also finish in that order;
// with several, tasks run side by side, as the jobs that queue them do, and
// a job's wait covers only its own tasks (see Wait).
//
// The helpers never allocate or free memory on their success path. Tasks
// sit in a fixed ring of slots whose path strings are filled (and their
// buffers reused) by the producing thread, and the caller owns every file it
// queues and frees it once its task has run (see Done and Wait). A thread
// that never calls malloc never gets a malloc arena of its own, so each
// helper adds a stack and nothing else to the process's memory.

#ifndef LASER_UTIL_IO_QUEUE_H_
#define LASER_UTIL_IO_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/env.h"
#include "util/status.h"

namespace laser {

/// file->Sync(), then file->Close() even when the sync failed; returns the
/// first failure.
Status SyncThenClose(WritableFile* file);

class IoQueue {
 public:
  /// Queued or running tasks at most; a producer blocks while the ring is
  /// full.
  static constexpr uint64_t kCapacity = 256;

  /// Starts `threads` helpers (at least one). `env` runs the unlinks; it
  /// must outlive the queue.
  IoQueue(Env* env, int threads);
  /// Runs every queued task, then stops the helpers.
  ~IoQueue();

  IoQueue(const IoQueue&) = delete;
  IoQueue& operator=(const IoQueue&) = delete;

  /// Queues SyncThenClose(file). The caller keeps `file` alive until Wait()
  /// on the returned ticket returns. A failure is stored in `*first_error`
  /// unless that already holds one; the caller reads it after the wait.
  uint64_t SyncAndClose(WritableFile* file, Status* first_error);

  /// Queues the unlink of `fname`. A failed unlink is ignored: the file is
  /// already unreferenced, and recovery removes any leftover.
  void RemoveFile(const std::string& fname);

  /// Blocks until the task holding `ticket` has run. Ticket 0 names no task.
  void Wait(uint64_t ticket);

  /// True once the task holding `ticket` has run.
  bool Done(uint64_t ticket);

  /// Blocks until every task queued before the call has run.
  void Drain();

 private:
  struct Slot {
    WritableFile* file = nullptr;  // sync and close this; null: unlink fname
    Status* first_error = nullptr;
    std::string fname;
    bool finished = false;  // ran, but an earlier task is still running
  };

  uint64_t Push(WritableFile* file, Status* first_error, const std::string* fname);
  bool DoneLocked(uint64_t ticket) const;
  void Loop();

  Env* const env_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // helpers wait for a task
  std::condition_variable done_cv_;  // producers wait for progress
  // Ticket t (1-based) lives in slots_[(t - 1) % kCapacity]. Tickets up to
  // done_ have run; (done_, started_] have started, and the finished ones
  // among them say so in their slot; (started_, queued_] wait their turn.
  std::vector<Slot> slots_;
  uint64_t queued_ = 0;
  uint64_t started_ = 0;
  uint64_t done_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace laser

#endif  // LASER_UTIL_IO_QUEUE_H_
