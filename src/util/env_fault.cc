#include "util/env_fault.h"

namespace laser {

namespace {

Status SimulatedCrash(const std::string& fname) {
  return Status::IOError("simulated crash: " + fname);
}

/// Wraps a writable file so every append/sync/close goes through the fault
/// schedule, and a successful sync captures the durable image.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string fname,
                    std::unique_ptr<WritableFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    // A rejected append writes nothing: the simulated kernel never saw it.
    LASER_RETURN_IF_ERROR(
        env_->BeginMutation(FaultInjectionEnv::OpKind::kAppend, fname_));
    return base_->Append(data);
  }

  Status Flush() override {
    // Flush moves bytes between userspace buffers; it is not a durability
    // point and not a distinct crash site beyond the append that filled it.
    LASER_RETURN_IF_ERROR(env_->CheckAlive(fname_));
    return base_->Flush();
  }

  Status Sync() override {
    LASER_RETURN_IF_ERROR(
        env_->BeginMutation(FaultInjectionEnv::OpKind::kSync, fname_));
    LASER_RETURN_IF_ERROR(base_->Sync());
    env_->MarkDurable(fname_);
    return Status::OK();
  }

  Status Close() override {
    // Close the base file even when the op is rejected (fd hygiene); data
    // buffered by the base may reach the volatile filesystem but never the
    // durable image.
    Status injected =
        env_->BeginMutation(FaultInjectionEnv::OpKind::kClose, fname_);
    Status closed = base_->Close();
    return injected.ok() ? closed : injected;
  }

 private:
  FaultInjectionEnv* const env_;
  const std::string fname_;
  std::unique_ptr<WritableFile> base_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Fault scheduling and op accounting
// ---------------------------------------------------------------------------

void FaultInjectionEnv::CrashAfterOps(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  kill_at_ = ops_ + n;
}

void FaultInjectionEnv::FailOperation(uint64_t k) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_at_ = ops_ + k;
}

void FaultInjectionEnv::FailOperation(OpKind kind, const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_op_ = OpRecord{kind, fname};
}

void FaultInjectionEnv::ClearFaults() {
  std::lock_guard<std::mutex> lock(mu_);
  killed_ = false;
  kill_at_.reset();
  fail_at_.reset();
  fail_op_.reset();
}

bool FaultInjectionEnv::killed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return killed_;
}

uint64_t FaultInjectionEnv::mutating_ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

std::vector<FaultInjectionEnv::OpRecord> FaultInjectionEnv::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

Status FaultInjectionEnv::BeginMutation(OpKind kind, const std::string& fname) {
  std::lock_guard<std::mutex> lock(mu_);
  if (killed_) return SimulatedCrash(fname);
  const uint64_t index = ops_;
  if (kill_at_.has_value() && index >= *kill_at_) {
    killed_ = true;
    return SimulatedCrash(fname);
  }
  ops_++;
  history_.push_back(OpRecord{kind, fname});
  if (fail_at_.has_value() && index == *fail_at_) {
    fail_at_.reset();
    return Status::IOError("injected fault: " + fname);
  }
  if (fail_op_.has_value() && fail_op_->kind == kind && fail_op_->fname == fname) {
    fail_op_.reset();
    return Status::IOError("injected fault: " + fname);
  }
  return Status::OK();
}

Status FaultInjectionEnv::CheckAlive(const std::string& fname) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (killed_) return SimulatedCrash(fname);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Durable-state control
// ---------------------------------------------------------------------------

void FaultInjectionEnv::MarkDurable(const std::string& fname) {
  std::string contents;
  if (!base_->ReadFileToString(fname, &contents).ok()) return;
  std::lock_guard<std::mutex> lock(mu_);
  durable_[fname] = std::move(contents);
}

void FaultInjectionEnv::DropUnsyncedData() {
  std::set<std::string> names;
  std::map<std::string, std::string> durable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names = tracked_;
    for (const auto& [fname, contents] : durable_) names.insert(fname);
    durable = durable_;
  }
  for (const std::string& fname : names) {
    auto it = durable.find(fname);
    if (it != durable.end()) {
      base_->WriteStringToFile(Slice(it->second), fname);
    } else {
      base_->RemoveFile(fname);  // NotFound is fine: it never became durable
    }
  }
}

FaultInjectionEnv::DurableState FaultInjectionEnv::SnapshotDurableState() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DurableState{durable_};
}

void FaultInjectionEnv::RestoreDurableState(const DurableState& state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable_ = state.files;
    for (const auto& [fname, contents] : durable_) tracked_.insert(fname);
  }
  DropUnsyncedData();
}

// ---------------------------------------------------------------------------
// Env interface
// ---------------------------------------------------------------------------

Status FaultInjectionEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  LASER_RETURN_IF_ERROR(CheckAlive(fname));
  return base_->NewSequentialFile(fname, result);
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  LASER_RETURN_IF_ERROR(CheckAlive(fname));
  return base_->NewRandomAccessFile(fname, result);
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  LASER_RETURN_IF_ERROR(BeginMutation(OpKind::kCreate, fname));
  std::unique_ptr<WritableFile> base_file;
  LASER_RETURN_IF_ERROR(base_->NewWritableFile(fname, &base_file));
  {
    std::lock_guard<std::mutex> lock(mu_);
    tracked_.insert(fname);
  }
  *result = std::make_unique<FaultWritableFile>(this, fname, std::move(base_file));
  return Status::OK();
}

bool FaultInjectionEnv::FileExists(const std::string& fname) {
  if (!CheckAlive(fname).ok()) return false;
  return base_->FileExists(fname);
}

Status FaultInjectionEnv::GetChildren(const std::string& dir,
                                      std::vector<std::string>* result) {
  LASER_RETURN_IF_ERROR(CheckAlive(dir));
  return base_->GetChildren(dir, result);
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  LASER_RETURN_IF_ERROR(BeginMutation(OpKind::kRemove, fname));
  LASER_RETURN_IF_ERROR(base_->RemoveFile(fname));
  std::lock_guard<std::mutex> lock(mu_);
  durable_.erase(fname);
  return Status::OK();
}

Status FaultInjectionEnv::CreateDir(const std::string& dirname) {
  LASER_RETURN_IF_ERROR(BeginMutation(OpKind::kCreateDir, dirname));
  return base_->CreateDir(dirname);
}

Status FaultInjectionEnv::RemoveDir(const std::string& dirname) {
  LASER_RETURN_IF_ERROR(BeginMutation(OpKind::kRemoveDir, dirname));
  LASER_RETURN_IF_ERROR(base_->RemoveDir(dirname));
  const std::string prefix = dirname.back() == '/' ? dirname : dirname + "/";
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = durable_.begin(); it != durable_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      it = durable_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status FaultInjectionEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  LASER_RETURN_IF_ERROR(CheckAlive(fname));
  return base_->GetFileSize(fname, size);
}

Status FaultInjectionEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  LASER_RETURN_IF_ERROR(BeginMutation(OpKind::kRename, src));
  LASER_RETURN_IF_ERROR(base_->RenameFile(src, target));
  std::lock_guard<std::mutex> lock(mu_);
  tracked_.insert(src);
  tracked_.insert(target);
  durable_.erase(target);
  auto it = durable_.find(src);
  if (it != durable_.end()) {
    durable_[target] = std::move(it->second);
    durable_.erase(it);
  }
  return Status::OK();
}

}  // namespace laser
