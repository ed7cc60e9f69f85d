//===- serve/LeaseLedger.cpp - Crash-safe shard lease ledger --------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "serve/LeaseLedger.h"

#include "store/Serde.h"

#include <ctime>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::serve;

uint64_t serve::monotonicNowMs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000 +
         static_cast<uint64_t>(Ts.tv_nsec) / 1000000;
}

namespace {

void removeEntries(const std::string &Dir) {
  for (const std::string &Name : listDir(Dir))
    ::unlink((Dir + "/" + Name).c_str());
}

/// Exclusive (or shared) flock on the ledger lock file, released on
/// destruction. flock locks attach to the open file description, so
/// independent opens exclude each other across both threads and
/// processes.
class ScopedLock {
public:
  ScopedLock(const std::string &Path, bool Exclusive) {
    Fd = ::open(Path.c_str(), O_CREAT | O_RDWR, 0644);
    if (Fd >= 0 && ::flock(Fd, Exclusive ? LOCK_EX : LOCK_SH) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~ScopedLock() {
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
  }
  bool held() const { return Fd >= 0; }

private:
  int Fd = -1;
};

} // namespace

LeaseLedger::LeaseLedger(std::string StoreDir)
    : Dir(std::move(StoreDir) + "/serve") {}

std::string LeaseLedger::jobPath(uint64_t JobId) const {
  return Dir + "/jobs/" + std::to_string(JobId) + ".job";
}

std::string LeaseLedger::resultPath(uint64_t JobId,
                                    uint64_t Generation) const {
  return Dir + "/results/" + std::to_string(JobId) + "-g" +
         std::to_string(Generation) + ".msg";
}

std::string LeaseLedger::helloPath(uint64_t Worker) const {
  return Dir + "/hello-" + std::to_string(Worker) + ".msg";
}

bool LeaseLedger::initialize(std::string &ErrorOut) {
  if (!ensureDir(Dir, ErrorOut) || !ensureDir(Dir + "/jobs", ErrorOut) ||
      !ensureDir(Dir + "/results", ErrorOut))
    return false;
  removeEntries(Dir + "/jobs");
  removeEntries(Dir + "/results");
  for (const std::string &Name : listDir(Dir))
    if (Name == "DONE" || Name.rfind("hello-", 0) == 0)
      ::unlink((Dir + "/" + Name).c_str());
  return atomicWriteFile(ledgerPath(), encodeLeaseLedger(LeaseLedgerMsg{}),
                         ErrorOut);
}

bool LeaseLedger::openExisting(std::string &ErrorOut) {
  std::string Bytes;
  if (!readFileBytes(ledgerPath(), Bytes, ErrorOut))
    return false;
  LeaseLedgerMsg Table;
  return decodeLeaseLedger(Bytes, Table, ErrorOut);
}

template <typename Fn>
bool LeaseLedger::withLedger(Fn Mutate, std::string &ErrorOut) {
  ScopedLock Lock(Dir + "/ledger.lock", /*Exclusive=*/true);
  if (!Lock.held()) {
    ErrorOut = "cannot lock lease ledger in " + Dir;
    return false;
  }
  std::string Bytes;
  if (!readFileBytes(ledgerPath(), Bytes, ErrorOut))
    return false;
  LeaseLedgerMsg Table;
  if (!decodeLeaseLedger(Bytes, Table, ErrorOut))
    return false;
  if (!Mutate(Table))
    return true; // read-only outcome: nothing to persist
  return atomicWriteFile(ledgerPath(), encodeLeaseLedger(Table), ErrorOut);
}

bool LeaseLedger::allocateJobIds(size_t Count, uint64_t &FirstOut,
                                 std::string &ErrorOut) {
  return withLedger(
      [&](LeaseLedgerMsg &Table) {
        FirstOut = Table.NextJobId;
        Table.NextJobId += Count;
        return true;
      },
      ErrorOut);
}

bool LeaseLedger::enqueue(const std::vector<ShardJobMsg> &Jobs,
                          std::string &ErrorOut) {
  // Job messages land before their ledger entries: a worker that sees an
  // entry is guaranteed a readable job file.
  for (const ShardJobMsg &Job : Jobs)
    if (!atomicWriteFile(jobPath(Job.JobId), encodeShardJob(Job), ErrorOut))
      return false;
  return withLedger(
      [&](LeaseLedgerMsg &Table) {
        for (const ShardJobMsg &Job : Jobs) {
          LeaseEntry Entry;
          Entry.JobId = Job.JobId;
          Entry.Generation = Job.Generation;
          Entry.State = LeaseState::Queued;
          Table.Entries.push_back(Entry);
        }
        return true;
      },
      ErrorOut);
}

bool LeaseLedger::lease(uint64_t Worker, uint64_t TtlMs,
                        std::optional<ShardJobMsg> &JobOut,
                        std::string &ErrorOut) {
  JobOut.reset();
  uint64_t LeasedJob = 0, LeasedGeneration = 0;
  bool Took = false;
  if (!withLedger(
          [&](LeaseLedgerMsg &Table) {
            LeaseEntry *Best = nullptr;
            for (LeaseEntry &Entry : Table.Entries)
              if (Entry.State == LeaseState::Queued &&
                  (!Best || Entry.JobId < Best->JobId))
                Best = &Entry;
            if (!Best)
              return false;
            Best->State = LeaseState::Leased;
            Best->Worker = Worker;
            Best->DeadlineMs = monotonicNowMs() + TtlMs;
            LeasedJob = Best->JobId;
            LeasedGeneration = Best->Generation;
            Took = true;
            return true;
          },
          ErrorOut))
    return false;
  if (!Took)
    return true;
  std::string Bytes;
  if (!readFileBytes(jobPath(LeasedJob), Bytes, ErrorOut))
    return false;
  ShardJobMsg Job;
  if (!decodeShardJob(Bytes, Job, ErrorOut))
    return false;
  // The job message can lag the ledger by one requeue (message rewritten
  // after the entry moved on); serve the ledger's generation so the
  // completion fence matches what the worker actually leased.
  Job.Generation = LeasedGeneration;
  JobOut = std::move(Job);
  return true;
}

bool LeaseLedger::complete(uint64_t JobId, uint64_t Generation,
                           std::string &ErrorOut) {
  return withLedger(
      [&](LeaseLedgerMsg &Table) {
        for (LeaseEntry &Entry : Table.Entries)
          if (Entry.JobId == JobId) {
            if (Entry.Generation != Generation ||
                Entry.State == LeaseState::Done)
              return false; // fenced stale completion (or already done)
            Entry.State = LeaseState::Done;
            return true;
          }
        return false;
      },
      ErrorOut);
}

bool LeaseLedger::expireStale(std::vector<LeaseEntry> &ExpiredOut,
                              std::string &ErrorOut) {
  ExpiredOut.clear();
  const uint64_t NowMs = monotonicNowMs();
  return withLedger(
      [&](LeaseLedgerMsg &Table) {
        for (LeaseEntry &Entry : Table.Entries)
          if (Entry.State == LeaseState::Leased && Entry.DeadlineMs <= NowMs) {
            ExpiredOut.push_back(Entry);
            Entry.State = LeaseState::Queued;
            ++Entry.Generation;
            Entry.Worker = 0;
            Entry.DeadlineMs = 0;
          }
        return !ExpiredOut.empty();
      },
      ErrorOut);
}

bool LeaseLedger::requeue(const ShardJobMsg &Job, std::string &ErrorOut) {
  if (!atomicWriteFile(jobPath(Job.JobId), encodeShardJob(Job), ErrorOut))
    return false;
  return withLedger(
      [&](LeaseLedgerMsg &Table) {
        for (LeaseEntry &Entry : Table.Entries)
          if (Entry.JobId == Job.JobId) {
            Entry.Generation = Job.Generation;
            Entry.State = LeaseState::Queued;
            Entry.Worker = 0;
            Entry.DeadlineMs = 0;
            return true;
          }
        return false;
      },
      ErrorOut);
}

bool LeaseLedger::snapshot(LeaseLedgerMsg &Out, std::string &ErrorOut) {
  ScopedLock Lock(Dir + "/ledger.lock", /*Exclusive=*/false);
  if (!Lock.held()) {
    ErrorOut = "cannot lock lease ledger in " + Dir;
    return false;
  }
  std::string Bytes;
  if (!readFileBytes(ledgerPath(), Bytes, ErrorOut))
    return false;
  return decodeLeaseLedger(Bytes, Out, ErrorOut);
}
