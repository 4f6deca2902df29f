#include "util/io_queue.h"

#include <algorithm>

namespace laser {

Status SyncThenClose(WritableFile* file) {
  Status s = file->Sync();
  const Status closed = file->Close();
  return s.ok() ? closed : s;
}

IoQueue::IoQueue(Env* env, int threads) : env_(env), slots_(kCapacity) {
  for (int i = 0; i < std::max(1, threads); ++i) {
    threads_.emplace_back([this] { Loop(); });
  }
}

IoQueue::~IoQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

uint64_t IoQueue::SyncAndClose(WritableFile* file, Status* first_error) {
  return Push(file, first_error, nullptr);
}

void IoQueue::RemoveFile(const std::string& fname) {
  Push(nullptr, nullptr, &fname);
}

uint64_t IoQueue::Push(WritableFile* file, Status* first_error,
                       const std::string* fname) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return queued_ - done_ < kCapacity; });
  Slot& slot = slots_[queued_ % kCapacity];
  slot.file = file;
  slot.first_error = first_error;
  if (fname != nullptr) slot.fname.assign(*fname);
  const uint64_t ticket = ++queued_;
  lock.unlock();
  work_cv_.notify_one();
  return ticket;
}

bool IoQueue::DoneLocked(uint64_t ticket) const {
  return ticket <= done_ ||
         (ticket <= started_ && slots_[(ticket - 1) % kCapacity].finished);
}

void IoQueue::Wait(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, ticket] { return DoneLocked(ticket); });
}

bool IoQueue::Done(uint64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  return DoneLocked(ticket);
}

void IoQueue::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t ticket = queued_;
  done_cv_.wait(lock, [this, ticket] { return done_ >= ticket; });
}

void IoQueue::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || started_ < queued_; });
    if (started_ == queued_) return;  // stopping, and nothing is left
    // The slot stays this helper's until done_ moves past it, so it is read
    // unlocked.
    Slot& slot = slots_[started_++ % kCapacity];
    lock.unlock();
    Status s;
    if (slot.file != nullptr) {
      s = SyncThenClose(slot.file);
    } else {
      env_->RemoveFile(slot.fname);
    }
    lock.lock();
    if (!s.ok() && slot.first_error->ok()) *slot.first_error = s;
    slot.finished = true;
    while (done_ < started_ && slots_[done_ % kCapacity].finished) {
      slots_[done_++ % kCapacity].finished = false;
    }
    done_cv_.notify_all();
  }
}

}  // namespace laser
