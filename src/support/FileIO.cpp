//===- support/FileIO.cpp - The one file-write path ------------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace spvfuzz;

namespace {

constexpr size_t AppendBufferBytes = 64 * 1024;

/// Throws for the failed call that set errno. No argument allocates, so
/// errno is still the failed call's when it is read.
[[noreturn]] void fail(const char *What, const std::string &Path,
                       int Errno = errno) {
  throw FileWriteError(std::string(What) + " " + Path + ": " +
                       strerror(Errno));
}

int openForWrite(const std::string &Path, int Flags) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | Flags, 0644);
  if (Fd < 0)
    fail("cannot open", Path);
  return Fd;
}

/// Writes all of \p Bytes to \p Fd, retrying short and interrupted writes.
void writeAll(int Fd, std::string_view Bytes, const std::string &Path) {
  while (!Bytes.empty()) {
    ssize_t N = ::write(Fd, Bytes.data(), Bytes.size());
    if (N < 0 && errno != EINTR)
      fail("write to", Path);
    if (N > 0)
      Bytes.remove_prefix(static_cast<size_t>(N));
  }
}

void syncDirectoryOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  bool Ok = Fd >= 0 && ::fsync(Fd) == 0;
  int Errno = errno;
  if (Fd >= 0)
    ::close(Fd);
  if (!Ok)
    fail("fsync of directory", Dir, Errno);
}

} // namespace

void spvfuzz::writeFile(const std::string &Path, std::string_view Bytes) {
  AppendFile File;
  File.open(Path, /*Truncate=*/true);
  File.append(Bytes);
  File.close();
}

void spvfuzz::atomicWriteFile(const std::string &Path,
                              std::string_view Bytes) {
  const std::string TempPath = Path + ".tmp";
  int Fd = openForWrite(TempPath, O_TRUNC);
  try {
    writeAll(Fd, Bytes, TempPath);
    if (::fsync(Fd) != 0)
      fail("fsync of", TempPath);
    ::close(std::exchange(Fd, -1));
    if (::rename(TempPath.c_str(), Path.c_str()) != 0)
      fail("cannot rename a temporary onto", Path);
  } catch (const FileWriteError &) {
    if (Fd >= 0)
      ::close(Fd);
    ::unlink(TempPath.c_str());
    throw;
  }
  syncDirectoryOf(Path); // the rename itself is durable only then
}

void spvfuzz::ensureDir(const std::string &Path) {
  if (::mkdir(Path.c_str(), 0755) != 0 && errno != EEXIST)
    fail("cannot create directory", Path);
}

void spvfuzz::removeFile(const std::string &Path) {
  if (::unlink(Path.c_str()) != 0)
    fail("cannot remove", Path);
}

void spvfuzz::moveFile(const std::string &From, const std::string &To) {
  if (::rename(From.c_str(), To.c_str()) != 0)
    fail("cannot move", From);
  syncDirectoryOf(To);
}

bool spvfuzz::readFileBytes(const std::string &Path, std::string &Out,
                            std::string &ErrorOut) {
  FILE *File = fopen(Path.c_str(), "rb");
  if (!File) {
    ErrorOut = "cannot open " + Path + ": " + strerror(errno);
    return false;
  }
  Out.clear();
  char Buf[65536];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), File)) > 0)
    Out.append(Buf, N);
  bool Ok = !ferror(File);
  fclose(File);
  if (!Ok)
    ErrorOut = "read of " + Path + " failed";
  return Ok;
}

bool spvfuzz::pathExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

std::vector<std::string> spvfuzz::listDir(const std::string &Dir,
                                          const std::string &Suffix,
                                          std::string *ErrorOut) {
  std::vector<std::string> Names;
  DIR *D = ::opendir(Dir.c_str());
  if (!D) {
    if (ErrorOut)
      *ErrorOut = "cannot open directory " + Dir + ": " + strerror(errno);
    return Names;
  }
  while (struct dirent *Entry = ::readdir(D)) {
    std::string Name = Entry->d_name;
    if (Name == "." || Name == "..")
      continue;
    if (Name.size() < Suffix.size() ||
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) != 0)
      continue;
    Names.push_back(std::move(Name));
  }
  ::closedir(D);
  std::sort(Names.begin(), Names.end());
  return Names;
}

AppendFile::~AppendFile() {
  try {
    close();
  } catch (const FileWriteError &) {
  }
}

void AppendFile::open(const std::string &NewPath, bool Truncate) {
  close();
  Path = NewPath;
  Fd = openForWrite(Path, O_APPEND | (Truncate ? O_TRUNC : 0));
}

void AppendFile::append(std::string_view Bytes) {
  Buffer.append(Bytes);
  if (Buffer.size() >= AppendBufferBytes)
    flush();
}

void AppendFile::flush() {
  std::string Pending = std::exchange(Buffer, {});
  writeAll(Fd, Pending, Path);
}

void AppendFile::sync() {
  flush();
  if (::fsync(Fd) != 0)
    fail("fsync of", Path);
}

void AppendFile::truncate(uint64_t Size) {
  flush();
  if (::ftruncate(Fd, static_cast<off_t>(Size)) != 0)
    fail("cannot truncate", Path);
}

void AppendFile::close() {
  if (Fd < 0)
    return;
  const int Open = std::exchange(Fd, -1);
  try {
    writeAll(Open, std::exchange(Buffer, {}), Path);
  } catch (const FileWriteError &) {
    ::close(Open);
    throw;
  }
  if (::close(Open) != 0)
    fail("close of", Path);
}
