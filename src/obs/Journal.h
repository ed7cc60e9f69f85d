//===- obs/Journal.h - Crash-safe campaign event journal --------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign event journal: a typed, versioned, append-only JSONL
/// stream of the campaign's decision events, written into
/// `<store>/journal/events.jsonl` in serial commit order. Because every
/// event is emitted at a serial commit point of the campaign engine (wave
/// boundaries, in test-index order), the decision-bearing byte stream at
/// `--jobs N` is identical to `--jobs 1`; the only non-deterministic field
/// is the trailing `wall_us` wall-clock stamp, which `--deterministic-
/// journal` zeroes so journals can be diffed directly.
///
/// One line per event, each line self-describing and versioned:
///
///   {"v":2,"seq":12,"kind":"BugFound","phase":"eval/spirv-fuzz/100",
///    "wave":64,"test":41,"target":"Mali","signature":"...","wall_us":...}
///
/// Crash safety: lines are flushed to the OS as they are appended and
/// fsync'd at wave boundaries (JournalWriter::commit), and every append
/// happens *before* the corresponding store checkpoint save — so after a
/// crash or a failed write the journal is always at or ahead of the
/// store. A failed append, fsync or truncation throws FileWriteError
/// (support/FileIO.h), out of the observer hooks too. On resume the
/// writer keeps the parseable prefix (a torn tail from a mid-write crash
/// is truncated away), and the engine's onPhaseStarted callback trims the
/// journal back to the wave the store actually resumes from; recomputed
/// waves then re-append byte-identical events. A `CampaignFinished` line
/// therefore marks a journal as complete: anything after the last
/// checkpoint of an interrupted run is reproduced, never duplicated.
///
/// The journal covers the most recent campaign run into the store (the
/// store parks other campaigns' journals, see CampaignStore::open); the
/// live monitoring surface (`minispv top` / `minispv tail --follow`)
/// tails it while the campaign is still running via JournalTailer.
///
//===----------------------------------------------------------------------===//

#ifndef OBS_JOURNAL_H
#define OBS_JOURNAL_H

#include "campaign/CampaignEngine.h"
#include "support/FileIO.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spvfuzz {
namespace obs {

/// The journal line-format version this build writes. Readers refuse
/// lines from a newer version instead of misinterpreting them.
/// Version 2 added the PostReduceStep event kind (IR-level post-reduction
/// pass accounting, emitted only when the policy enables post-reduce).
/// Version 3 added the BugAttributed event kind (triage post-pass,
/// emitted only under --triage).
constexpr uint64_t JournalFormatVersion = 3;

/// Every event kind the journal records. The first block are the
/// campaign's decision events (written to events.jsonl in serial commit
/// order, byte-identical at any job or worker count); the Worker* / Shard*
/// / Lease* kinds are scale-out *scheduling* events, which are inherently
/// nondeterministic and therefore go to a separate stream
/// (`<store>/journal/serve.jsonl`, see servePathFor) that equivalence
/// checks never diff.
enum class JournalEventKind {
  CampaignStarted,
  WaveCommitted,
  BugFound,
  ReductionStep,
  PostReduceStep,
  BugAttributed,
  TargetQuarantined,
  CheckpointSaved,
  CampaignFinished,
  WorkerAttached,
  WorkerExited,
  ShardLeased,
  ShardCompleted,
  LeaseExpired,
};

const char *journalEventKindName(JournalEventKind Kind);
bool journalEventKindFromName(const std::string &Name,
                              JournalEventKind &Out);

/// One journal event. Which fields are meaningful (and serialized) depends
/// on the kind; unused fields stay at their defaults. `WallUs` is the only
/// non-deterministic field and always serializes last.
struct JournalEvent {
  uint64_t Seq = 0;
  JournalEventKind Kind = JournalEventKind::CampaignStarted;
  /// CampaignStarted/CampaignFinished: the campaign id.
  std::string Campaign;
  /// Phase key of the engine phase the event belongs to.
  std::string Phase;
  /// BugFound/ReductionStep/BugAttributed/TargetQuarantined: the target.
  std::string Target;
  /// BugFound/ReductionStep/PostReduceStep/BugAttributed: the signature.
  std::string Signature;
  /// PostReduceStep: name of the post-reduction pass. BugAttributed: the
  /// attribution's culprit label ("inliner#0", or "(unattributable)" /
  /// "(no-repro)").
  std::string Pass;
  /// Phase events: the wave (end) boundary, in test indices.
  uint64_t Wave = 0;
  /// CampaignStarted: tests per tool; WaveCommitted: phase total.
  uint64_t Total = 0;
  /// BugFound/ReductionStep: the test index.
  uint64_t Test = 0;
  /// WaveCommitted: bugs (eval) or reductions (reduce) committed so far;
  /// CampaignFinished: total distinct bugs.
  uint64_t Count = 0;
  /// CampaignStarted: campaign seed / transformation limit.
  uint64_t Seed = 0;
  uint64_t Limit = 0;
  /// ReductionStep: instruction counts and check budget of the record.
  uint64_t Unreduced = 0;
  uint64_t Reduced = 0;
  uint64_t Minimized = 0;
  /// ReductionStep/PostReduceStep: serial interestingness checks decided.
  /// BugAttributed: bisection prefix probes spent (Test carries the
  /// culprit's pipeline index, Count its instance index).
  uint64_t Checks = 0;
  /// PostReduceStep: candidates attempted / accepted by the pass.
  uint64_t Attempted = 0;
  uint64_t Accepted = 0;
  /// Scale-out events: the worker id (0 = the coordinator itself). For
  /// ShardLeased (a wave sent to a worker), ShardCompleted and
  /// LeaseExpired (a wave requeued because its worker's socket closed or
  /// sent a bad frame), Count carries the coordinator's job number and
  /// Wave the shard's end boundary; for WorkerAttached/WorkerExited, Count
  /// carries the worker's pid (0 for a worker thread).
  uint64_t Worker = 0;
  /// Wall clock (microseconds since the Unix epoch) when the event was
  /// appended; 0 under deterministic-journal mode.
  uint64_t WallUs = 0;
};

/// Serializes \p Event as one JSONL line (no trailing newline), with the
/// deterministic fields first and `wall_us` last.
std::string serializeJournalEvent(const JournalEvent &Event);

/// Parses one journal line. Returns false and sets \p Error (with a
/// column position) on malformed input, an unknown kind, or a format
/// version newer than this build understands.
bool parseJournalLine(const std::string &Line, JournalEvent &Out,
                      std::string &Error);

/// A one-line human rendering of \p Event (the `minispv tail` format).
std::string formatJournalEvent(const JournalEvent &Event);

/// Path of the journal file inside store directory \p StoreDir.
std::string journalPathFor(const std::string &StoreDir);

/// The campaign the journal of store \p StoreDir belongs to: the id its
/// first line, the CampaignStarted event, names ("" without a journal or
/// such a line). Reads only that line.
std::string journalCampaign(const std::string &StoreDir);

/// Path of the scale-out scheduling journal (worker/lease events) inside
/// store directory \p StoreDir. Kept separate from events.jsonl so the
/// decision stream stays byte-identical across worker counts.
std::string servePathFor(const std::string &StoreDir);

/// The append side of the journal. Thread-compatible: the campaign engine
/// invokes its observer serially, but appends are mutex-guarded anyway so
/// a CLI thread can append CampaignStarted/Finished around the run.
class JournalWriter {
public:
  /// Opens `<StoreDir>/journal/events.jsonl` (creating the directory if
  /// needed). Without \p Resume any existing journal is truncated (a
  /// fresh campaign run starts a fresh journal); with \p Resume the
  /// parseable prefix of the existing journal is kept — an unparseable or
  /// torn tail is truncated away — and sequence numbers continue from it.
  /// With \p Deterministic every event's wall_us is written as 0.
  /// Returns nullptr and sets \p Error on I/O failure or when the
  /// existing journal was written by a newer format version.
  static std::unique_ptr<JournalWriter> open(const std::string &StoreDir,
                                             bool Resume, bool Deterministic,
                                             std::string &Error);
  /// Same contract, but writing to an explicit \p Path (whose parent
  /// directory must already exist). Used for the scale-out scheduling
  /// stream at servePathFor(StoreDir).
  static std::unique_ptr<JournalWriter> openAt(const std::string &Path,
                                               bool Resume,
                                               bool Deterministic,
                                               std::string &Error);
  ~JournalWriter();
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Appends one event: assigns Seq (and WallUs unless deterministic),
  /// writes the line and flushes it to the OS. Returns the assigned Seq;
  /// a failed write throws FileWriteError.
  uint64_t append(JournalEvent Event);

  /// Durability point: fsyncs the journal file (FileWriteError on
  /// failure). The engine observer calls this at wave boundaries, before
  /// the store checkpoint save.
  void commit();

  /// Trims the journal for a phase resuming at wave boundary
  /// \p StartWave: everything from the first event of \p Phase with
  /// Wave > StartWave, or from just past its CheckpointSaved line at
  /// StartWave, is dropped, because the engine is about to recompute
  /// those waves (and save the phase's final checkpoint) and re-append
  /// their events.
  void truncateForPhaseResume(const std::string &Phase, uint64_t StartWave);

  bool empty() const;
  /// Kind of the last journaled event (meaningful only when !empty()).
  JournalEventKind lastKind() const;
  const std::vector<JournalEvent> &events() const { return Events; }
  const std::string &path() const { return Path; }

private:
  JournalWriter() = default;

  std::string Path;
  AppendFile File;
  bool Deterministic = false;
  uint64_t NextSeq = 0;
  mutable std::mutex Mutex;
  std::vector<JournalEvent> Events;
  /// Byte offset just past each event's line, for truncation.
  std::vector<uint64_t> LineEnds;
};

/// Incremental journal reader for live monitoring: each poll() picks up
/// the complete lines appended since the last one. A missing file or a
/// partial (still-being-written) last line is not an error — poll simply
/// returns no new events until more bytes land.
class JournalTailer {
public:
  explicit JournalTailer(std::string Path) : Path(std::move(Path)) {}

  /// Appends newly completed events to \p Out. Returns false and sets
  /// \p Error (line-accurate, prefixed with the path) on a malformed or
  /// version-incompatible line.
  bool poll(std::vector<JournalEvent> &Out, std::string &Error);

  /// Bytes consumed so far.
  uint64_t offset() const { return Offset; }

  /// Whether the last poll left a partial (not yet newline-terminated)
  /// line pending — i.e. the writer is mid-append or crashed mid-write.
  bool hasPartial() const { return !Pending.empty(); }

private:
  std::string Path;
  uint64_t Offset = 0;
  uint64_t LineNo = 0;
  std::string Pending;
};

/// Reads every complete event currently in \p Path (a convenience
/// one-shot JournalTailer). Returns false on parse error; a torn tail is
/// tolerated (\p TornTail reports whether one was seen).
bool readJournalFile(const std::string &Path,
                     std::vector<JournalEvent> &Events, std::string &Error,
                     bool *TornTail = nullptr);

/// The engine-side adapter: a CampaignObserver that maps engine callbacks
/// onto journal events. All callbacks arrive on the engine's aggregation
/// thread at serial commit points, so the journal's event order is the
/// decision order.
class JournalObserver : public CampaignObserver {
public:
  explicit JournalObserver(JournalWriter &Writer) : Writer(Writer) {}

  void onPhaseStarted(const std::string &Phase, size_t StartWave,
                      size_t Total) override;
  void onBugFound(const std::string &Phase, size_t WaveEnd, size_t TestIndex,
                  const std::string &Target,
                  const std::string &Signature) override;
  void onTargetQuarantined(const std::string &Phase, size_t WaveEnd,
                           const std::string &Target) override;
  void onReductionStep(const std::string &Phase, size_t WaveEnd,
                       const ReductionRecord &Record) override;
  void onPostReduceStep(const std::string &Phase, size_t WaveEnd,
                        const ReductionRecord &Record,
                        const PostReducePassStats &Stat) override;
  void onWaveCommitted(const std::string &Phase, size_t WaveEnd,
                       size_t Total, size_t Count) override;
  void onCheckpointSaved(const std::string &Phase, size_t WaveEnd) override;

private:
  JournalWriter &Writer;
};

} // namespace obs
} // namespace spvfuzz

#endif // OBS_JOURNAL_H
