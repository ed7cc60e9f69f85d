//===- support/FileIO.h - The one file-write path ---------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every file the program writes goes through here. A failed write,
/// fsync, rename or truncate throws FileWriteError naming the file, so
/// no caller carries on past it; `minispv` and the benches exit 5 on it.
/// Reads report an unreadable file by returning false.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_FILEIO_H
#define SUPPORT_FILEIO_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace spvfuzz {

class FileWriteError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Writes \p Path (created or truncated) without fsync: for output files
/// the user names, which may be devices such as /dev/full.
void writeFile(const std::string &Path, std::string_view Bytes);

/// Writes \p Path crash-safely: write `<Path>.tmp`, fsync it, rename it
/// over \p Path, fsync the directory. A crash leaves the old file or the
/// new one; a failure leaves no temporary behind.
void atomicWriteFile(const std::string &Path, std::string_view Bytes);

/// Creates directory \p Path (its parent must exist) unless it exists.
void ensureDir(const std::string &Path);
/// Renames \p From to \p To and fsyncs the directory of \p To.
void moveFile(const std::string &From, const std::string &To);

/// Reads a whole file; false with a diagnostic if unreadable.
bool readFileBytes(const std::string &Path, std::string &Out,
                   std::string &ErrorOut);

/// True when \p Path names an existing file or directory. A trailing '/'
/// makes it true for directories only.
bool pathExists(const std::string &Path);

/// Sorted names of the entries of directory \p Dir ("." and ".." left
/// out) that end in \p Suffix ("" keeps them all). An unreadable \p Dir
/// lists as empty and, when \p ErrorOut is given, sets a diagnostic.
std::vector<std::string> listDir(const std::string &Dir,
                                 const std::string &Suffix = "",
                                 std::string *ErrorOut = nullptr);

/// An append-only file with a 64 KiB write buffer: append() writes
/// through when it fills, flush() empties it, sync() also fsyncs. After a
/// failure the unwritten bytes are dropped, and the file may end in a
/// torn record. Not thread-safe.
class AppendFile {
public:
  AppendFile() = default;
  /// Closes, dropping a failure (call close() to see it).
  ~AppendFile();
  AppendFile(const AppendFile &) = delete;
  AppendFile &operator=(const AppendFile &) = delete;

  /// Opens (creating) \p Path, emptied when \p Truncate; an open handle
  /// is closed first.
  void open(const std::string &Path, bool Truncate);
  bool isOpen() const { return Fd >= 0; }
  void append(std::string_view Bytes);
  void flush();
  void sync();
  /// Flushes, then cuts the file to \p Size bytes; appends continue there.
  void truncate(uint64_t Size);
  void close();

private:
  int Fd = -1;
  std::string Path;
  std::string Buffer;
};

} // namespace spvfuzz

#endif // SUPPORT_FILEIO_H
