#include "io/file_env.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/failpoint.h"

namespace comfedsv {
namespace {

namespace fs = std::filesystem;

std::string ErrnoMessage(const std::string& op, const std::string& path) {
  return op + " failed for '" + path + "': " + std::strerror(errno);
}

/// fsync an already-open descriptor-by-path. POSIX only; on other
/// platforms durability is best-effort and this returns Ok.
Status FsyncPath(const std::string& path, bool directory) {
#ifndef _WIN32
  int flags = O_RDONLY;
#ifdef O_DIRECTORY
  if (directory) flags |= O_DIRECTORY;
#endif
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::Unavailable(
        ErrnoMessage(directory ? "open directory" : "open", path));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return Status::Unavailable(ErrnoMessage("fsync", path));
  }
#else
  (void)path;
  (void)directory;
#endif
  return Status::Ok();
}

}  // namespace

Status FileEnv::WriteFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Unavailable("cannot open '" + path + "' for writing");
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) {
    return Status::Unavailable("short write to '" + path + "'");
  }
  out.close();
  if (!out) {
    return Status::Unavailable("close failed for '" + path + "'");
  }
  return Status::Ok();
}

Status FileEnv::SyncFile(const std::string& path) {
  return FsyncPath(path, /*directory=*/false);
}

Status FileEnv::Rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::Unavailable("rename '" + from + "' -> '" + to +
                               "' failed: " + ec.message());
  }
  return Status::Ok();
}

Status FileEnv::SyncDir(const std::string& dir) {
  return FsyncPath(dir, /*directory=*/true);
}

Result<std::string> FileEnv::ReadFile(const std::string& path) {
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  if (ec || st.type() == fs::file_type::not_found) {
    return Status::NotFound("no such file: '" + path + "'");
  }
  if (st.type() == fs::file_type::directory) {
    return Status::InvalidArgument("'" + path + "' is a directory");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cannot open '" + path + "' for reading");
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Unavailable("read failed for '" + path + "'");
  }
  return data;
}

Status FileEnv::Remove(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);  // removing a missing file is not an error
  if (ec) {
    return Status::Unavailable("remove '" + path +
                               "' failed: " + ec.message());
  }
  return Status::Ok();
}

Result<std::vector<std::string>> FileEnv::ListDir(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec) || ec) {
    return Status::NotFound("no such directory: '" + dir + "'");
  }
  std::vector<std::string> names;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    names.push_back(it->path().filename().string());
  }
  if (ec) {
    return Status::Unavailable("listing '" + dir +
                               "' failed: " + ec.message());
  }
  return names;
}

bool FileEnv::Exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec) && !ec;
}

Status FileEnv::AppendFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    return Status::Unavailable("cannot open '" + path + "' for append");
  }
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) {
    return Status::Unavailable("short append to '" + path + "'");
  }
  out.close();
  if (!out) {
    return Status::Unavailable("close failed for '" + path + "'");
  }
  return Status::Ok();
}

Result<std::string> FileEnv::ReadFileRange(const std::string& path,
                                           uint64_t offset, uint64_t length) {
  Result<uint64_t> size = FileSize(path);
  if (!size.ok()) return size.status();
  if (offset >= size.value()) return std::string();
  const uint64_t avail = std::min<uint64_t>(length, size.value() - offset);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Unavailable("cannot open '" + path + "' for reading");
  }
  in.seekg(static_cast<std::streamoff>(offset));
  std::string data(static_cast<size_t>(avail), '\0');
  in.read(data.data(), static_cast<std::streamsize>(avail));
  if (in.gcount() != static_cast<std::streamsize>(avail) || in.bad()) {
    return Status::Unavailable("range read failed for '" + path + "'");
  }
  return data;
}

Result<uint64_t> FileEnv::FileSize(const std::string& path) {
  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  if (ec || st.type() == fs::file_type::not_found) {
    return Status::NotFound("no such file: '" + path + "'");
  }
  if (st.type() == fs::file_type::directory) {
    return Status::InvalidArgument("'" + path + "' is a directory");
  }
  const uintmax_t size = fs::file_size(path, ec);
  if (ec) {
    return Status::Unavailable("stat '" + path + "' failed: " + ec.message());
  }
  return static_cast<uint64_t>(size);
}

Status FileEnv::Truncate(const std::string& path, uint64_t size) {
  std::error_code ec;
  fs::resize_file(path, static_cast<uintmax_t>(size), ec);
  if (ec) {
    return Status::Unavailable("truncate '" + path +
                               "' failed: " + ec.message());
  }
  return Status::Ok();
}

FileEnv* FileEnv::Real() {
  static FileEnv* env = new FileEnv();
  return env;
}

namespace failpoints {

const std::vector<std::string>& All() {
  static const std::vector<std::string>* all = new std::vector<std::string>{
      kWriteFile, kSyncFile,   kRename,    kSyncDir,  kReadFile,
      kRemove,    kListDir,    kAppendFile, kReadRange, kTruncate};
  return *all;
}

}  // namespace failpoints

namespace {

/// Truncate `path` to its first `n` bytes (clamped to current size) —
/// the on-disk effect of a torn write or post-crash data loss.
void TruncateTo(FileEnv* env, const std::string& path, int64_t n) {
  auto data = env->ReadFile(path);
  if (!data.ok()) return;
  std::string& bytes = data.value();
  if (n < 0) n = 0;
  if (static_cast<size_t>(n) < bytes.size()) {
    bytes.resize(static_cast<size_t>(n));
  }
  (void)env->WriteFile(path, bytes);
}

}  // namespace

Status FaultInjectingFileEnv::Check(const char* name,
                                    std::string_view write_data,
                                    const std::string& write_path) {
  if (crashed_) {
    return Status::Unavailable(std::string("crashed: ") + name +
                               " refused");
  }
  auto fire = FailpointRegistry::Global().Hit(name);
  if (!fire.has_value()) return Status::Ok();
  switch (static_cast<FaultAction>(fire->action)) {
    case FaultAction::kError:
      return Status::Unavailable(std::string("injected I/O error at ") +
                                 name);
    case FaultAction::kEnospc:
    case FaultAction::kShortWrite:
      if (!write_path.empty()) {
        // Leave the torn prefix behind, like a real partial write.
        (void)base_->WriteFile(
            write_path,
            write_data.substr(
                0, std::min<size_t>(write_data.size(),
                                    static_cast<size_t>(
                                        std::max<int64_t>(0, fire->arg)))));
      }
      return Status::Unavailable(
          static_cast<FaultAction>(fire->action) == FaultAction::kEnospc
              ? std::string("injected ENOSPC at ") + name
              : std::string("injected short write at ") + name);
    case FaultAction::kTornRename:
      // Handled by Rename() itself — here it degrades to an error.
      return Status::Unavailable(std::string("injected torn rename at ") +
                                 name);
    case FaultAction::kCrash:
      crashed_ = true;
      if (!write_path.empty()) {
        (void)base_->WriteFile(
            write_path,
            write_data.substr(
                0, std::min<size_t>(write_data.size(),
                                    static_cast<size_t>(
                                        std::max<int64_t>(0, fire->arg)))));
      }
      return Status::Unavailable(std::string("injected crash at ") + name);
  }
  return Status::Unavailable(std::string("injected fault at ") + name);
}

Status FaultInjectingFileEnv::WriteFile(const std::string& path,
                                        std::string_view data) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kWriteFile, data, path));
  return base_->WriteFile(path, data);
}

Status FaultInjectingFileEnv::SyncFile(const std::string& path) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kSyncFile, {}, {}));
  return base_->SyncFile(path);
}

Status FaultInjectingFileEnv::Rename(const std::string& from,
                                     const std::string& to) {
  if (crashed_) {
    return Status::Unavailable("crashed: io/rename refused");
  }
  auto fire = FailpointRegistry::Global().Hit(failpoints::kRename);
  if (fire.has_value()) {
    switch (static_cast<FaultAction>(fire->action)) {
      case FaultAction::kTornRename: {
        // The rename lands but the renamed file's tail does not: the
        // directory entry was durable before the data blocks were.
        COMFEDSV_RETURN_IF_ERROR(base_->Rename(from, to));
        TruncateTo(base_, to, fire->arg);
        return Status::Ok();
      }
      case FaultAction::kCrash:
        crashed_ = true;
        return Status::Unavailable("injected crash at io/rename");
      default:
        return Status::Unavailable("injected I/O error at io/rename");
    }
  }
  return base_->Rename(from, to);
}

Status FaultInjectingFileEnv::SyncDir(const std::string& dir) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kSyncDir, {}, {}));
  return base_->SyncDir(dir);
}

Result<std::string> FaultInjectingFileEnv::ReadFile(const std::string& path) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kReadFile, {}, {}));
  return base_->ReadFile(path);
}

Status FaultInjectingFileEnv::Remove(const std::string& path) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kRemove, {}, {}));
  return base_->Remove(path);
}

Result<std::vector<std::string>> FaultInjectingFileEnv::ListDir(
    const std::string& dir) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kListDir, {}, {}));
  return base_->ListDir(dir);
}

bool FaultInjectingFileEnv::Exists(const std::string& path) {
  return base_->Exists(path);
}

Status FaultInjectingFileEnv::AppendFile(const std::string& path,
                                         std::string_view data) {
  // Check()'s torn-prefix helper overwrites the whole file, which is
  // wrong for append — a torn append leaves the old bytes plus a prefix
  // of the new ones. Handle the write-shaped actions inline.
  if (crashed_) {
    return Status::Unavailable("crashed: io/append_file refused");
  }
  auto fire = FailpointRegistry::Global().Hit(failpoints::kAppendFile);
  if (fire.has_value()) {
    const auto action = static_cast<FaultAction>(fire->action);
    if (action == FaultAction::kCrash) crashed_ = true;
    if (action == FaultAction::kEnospc || action == FaultAction::kShortWrite ||
        action == FaultAction::kCrash) {
      (void)base_->AppendFile(
          path, data.substr(0, std::min<size_t>(
                                   data.size(),
                                   static_cast<size_t>(
                                       std::max<int64_t>(0, fire->arg)))));
    }
    return Status::Unavailable(
        std::string("injected fault at io/append_file"));
  }
  return base_->AppendFile(path, data);
}

Result<std::string> FaultInjectingFileEnv::ReadFileRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kReadRange, {}, {}));
  return base_->ReadFileRange(path, offset, length);
}

Result<uint64_t> FaultInjectingFileEnv::FileSize(const std::string& path) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kReadRange, {}, {}));
  return base_->FileSize(path);
}

Status FaultInjectingFileEnv::Truncate(const std::string& path,
                                       uint64_t size) {
  COMFEDSV_RETURN_IF_ERROR(Check(failpoints::kTruncate, {}, {}));
  return base_->Truncate(path, size);
}

}  // namespace comfedsv
