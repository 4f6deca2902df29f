// PosixEnv: Env implementation over POSIX file APIs with buffered appends.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/env.h"

namespace laser {

namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) return Status::NotFound(context + ": " + strerror(err));
  return Status::IOError(context + ": " + strerror(err));
}

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, static_cast<size_t>(r));
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  /// Reads until `n` bytes or EOF: pread may return short, or fail with
  /// EINTR, before either.
  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, scratch + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      if (r == 0) break;  // EOF
      done += static_cast<size_t>(r);
    }
    *result = Slice(scratch, done);
    return Status::OK();
  }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) Close();
  }

  Status Append(const Slice& data) override {
    size_t n = data.size();
    const char* p = data.data();
    // Fill the buffer first; spill large tails directly.
    size_t copy = std::min(n, kBufSize - pos_);
    memcpy(buf_ + pos_, p, copy);
    p += copy;
    n -= copy;
    pos_ += copy;
    if (n == 0) return Status::OK();
    LASER_RETURN_IF_ERROR(FlushBuffer());
    if (n < kBufSize) {
      memcpy(buf_, p, n);
      pos_ = n;
      return Status::OK();
    }
    return WriteRaw(p, n);
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    LASER_RETURN_IF_ERROR(FlushBuffer());
    if (::fsync(fd_) != 0) return PosixError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    Status s = FlushBuffer();
    if (::close(fd_) != 0 && s.ok()) s = PosixError(fname_, errno);
    fd_ = -1;
    return s;
  }

 private:
  Status FlushBuffer() {
    if (pos_ == 0) return Status::OK();
    Status s = WriteRaw(buf_, pos_);
    pos_ = 0;
    return s;
  }

  Status WriteRaw(const char* p, size_t n) {
    while (n > 0) {
      ssize_t r = ::write(fd_, p, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      p += r;
      n -= static_cast<size_t>(r);
    }
    return Status::OK();
  }

  static constexpr size_t kBufSize = 64 * 1024;
  const std::string fname_;
  int fd_;
  char buf_[kBufSize];
  size_t pos_ = 0;
};

class PosixEnv final : public Env {
 public:
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixSequentialFile>(fname, fd);
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixRandomAccessFile>(fname, fd);
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_TRUNC | O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixWritableFile>(fname, fd);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      result->push_back(entry.path().filename().string());
    }
    if (ec) return Status::IOError(dir + ": " + ec.message());
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) return PosixError(fname, errno);
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    std::error_code ec;
    std::filesystem::create_directories(dirname, ec);
    if (ec) return Status::IOError(dirname + ": " + ec.message());
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    std::error_code ec;
    std::filesystem::remove_all(dirname, ec);
    if (ec) return Status::IOError(dirname + ": " + ec.message());
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct stat st;
    if (::stat(fname.c_str(), &st) != 0) return PosixError(fname, errno);
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src, const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) return PosixError(src, errno);
    return Status::OK();
  }

  uint64_t NowMicros() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

}  // namespace laser
