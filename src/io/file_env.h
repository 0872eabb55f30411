// FileEnv: the filesystem seam under the checkpoint layer.
//
// Every byte the io/ layer moves to or from disk goes through one of
// these virtual operations, so a test can substitute a fault-injecting
// environment and prove the checkpoint pipeline crash-consistent
// without root, loop devices, or real ENOSPC. The default environment
// (FileEnv::Real()) is the plain filesystem.
//
// Status code contract (the manager's salvage logic keys off these):
//   * NotFound          — the path does not exist
//   * InvalidArgument   — the path exists but is the wrong kind of
//                         object (e.g. reading a directory as a file)
//   * Unavailable       — a transient environment failure (EIO, ENOSPC,
//                         interrupted write); retrying may succeed
//
// FaultInjectingFileEnv consults the failpoint registry
// (common/failpoint.h) on every operation under the names
// `failpoints::k*` below, and realizes the armed FaultAction: error
// injection, short writes, torn renames, and a sticky "crashed" state
// that fails everything until ClearCrash() — the building blocks of the
// crash-sweep harness in tests/io_recovery_test.cc.
#ifndef COMFEDSV_IO_FILE_ENV_H_
#define COMFEDSV_IO_FILE_ENV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace comfedsv {

class FileEnv {
 public:
  virtual ~FileEnv() = default;

  /// Creates/truncates `path` and writes all of `data`, flushing to the
  /// OS before returning. Partial writes are reported Unavailable (the
  /// on-disk prefix is unspecified).
  virtual Status WriteFile(const std::string& path, std::string_view data);

  /// fsync(2) of an existing file's contents.
  virtual Status SyncFile(const std::string& path);

  /// Atomically renames `from` over `to`, replacing any existing `to`.
  virtual Status Rename(const std::string& from, const std::string& to);

  /// fsync(2) of a directory — persists rename/unlink entries. Windows
  /// has no directory handles to sync; there this is a no-op Ok.
  virtual Status SyncDir(const std::string& dir);

  /// Reads the entire file. NotFound when missing, InvalidArgument when
  /// `path` is a directory.
  virtual Result<std::string> ReadFile(const std::string& path);

  /// Removes a file. Ok when the file did not exist (idempotent — the
  /// callers use this for cleanup of maybe-written temp files).
  virtual Status Remove(const std::string& path);

  /// Names (not full paths) of the entries of `dir`. NotFound when the
  /// directory does not exist.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir);

  virtual bool Exists(const std::string& path);

  // Range/append operations used by the round-log layer (io/round_log.h).

  /// Appends all of `data` to `path`, creating the file when missing,
  /// flushing to the OS before returning. A partial append is reported
  /// Unavailable (some prefix of `data` may have landed).
  virtual Status AppendFile(const std::string& path, std::string_view data);

  /// Reads up to `length` bytes starting at byte `offset`. Returns the
  /// bytes that exist — fewer than `length` when the file ends inside
  /// the range, empty when `offset` is at or past EOF. NotFound when the
  /// file is missing.
  virtual Result<std::string> ReadFileRange(const std::string& path,
                                            uint64_t offset,
                                            uint64_t length);

  /// Size of the file in bytes. NotFound when missing.
  virtual Result<uint64_t> FileSize(const std::string& path);

  /// Truncates (or zero-extends) the file to exactly `size` bytes.
  virtual Status Truncate(const std::string& path, uint64_t size);

  /// The real filesystem. Never null; shared process-wide.
  static FileEnv* Real();
};

/// Failpoint names instrumented by FaultInjectingFileEnv — one per
/// FileEnv operation. The crash-sweep harness treats this list as the
/// fault surface of the checkpoint pipeline.
namespace failpoints {
inline constexpr const char* kWriteFile = "io/write_file";
inline constexpr const char* kSyncFile = "io/sync_file";
inline constexpr const char* kRename = "io/rename";
inline constexpr const char* kSyncDir = "io/sync_dir";
inline constexpr const char* kReadFile = "io/read_file";
inline constexpr const char* kRemove = "io/remove";
inline constexpr const char* kListDir = "io/list_dir";
inline constexpr const char* kAppendFile = "io/append_file";
inline constexpr const char* kReadRange = "io/read_range";
inline constexpr const char* kTruncate = "io/truncate";

/// Every instrumented failpoint, in the order the sweep iterates them.
const std::vector<std::string>& All();
}  // namespace failpoints

/// What a firing failpoint does to the operation, passed as the
/// FailpointRegistry action code.
enum class FaultAction : int {
  /// Fail with Unavailable("injected I/O error") — a transient EIO.
  kError = 1,
  /// Fail with Unavailable("injected ENOSPC") — disk full. WriteFile
  /// additionally persists only the first `arg` bytes, like a real
  /// out-of-space short write; AppendFile appends only that prefix.
  kEnospc = 2,
  /// WriteFile/AppendFile only: persist (append) the first `arg` bytes,
  /// then fail Unavailable — a torn write.
  kShortWrite = 3,
  /// Rename only: perform the rename, then truncate the destination to
  /// `arg` bytes and report Ok — the "rename entry durable, data blocks
  /// lost" crash pattern the checksum + salvage path must absorb.
  kTornRename = 4,
  /// Enter the sticky crashed state: this operation and every later one
  /// fail Unavailable until ClearCrash(). WriteFile persists (AppendFile
  /// appends) the first `arg` bytes before dying (a mid-write kill -9).
  kCrash = 5,
};

/// A FileEnv decorator that injects faults per the failpoint registry.
/// Wraps any base environment (default: the real filesystem).
class FaultInjectingFileEnv : public FileEnv {
 public:
  explicit FaultInjectingFileEnv(FileEnv* base = FileEnv::Real())
      : base_(base) {}

  Status WriteFile(const std::string& path, std::string_view data) override;
  Status SyncFile(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& dir) override;
  Result<std::string> ReadFile(const std::string& path) override;
  Status Remove(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  Status AppendFile(const std::string& path, std::string_view data) override;
  Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                    uint64_t length) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;

  /// True once a kCrash action fired (every operation now fails).
  bool crashed() const { return crashed_; }
  /// "Restart the process": clear the crashed state. On-disk state is
  /// whatever the crash left behind — recovery code picks it up.
  void ClearCrash() { crashed_ = false; }

 private:
  /// Consults the registry; returns the fault to apply, if any, and
  /// handles the sticky crash state.
  Status Check(const char* name, std::string_view write_data,
               const std::string& write_path);

  FileEnv* base_;
  bool crashed_ = false;
};

}  // namespace comfedsv

#endif  // COMFEDSV_IO_FILE_ENV_H_
