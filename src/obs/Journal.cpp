//===- obs/Journal.cpp - Crash-safe campaign event journal ----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"

#include "support/FileIO.h"
#include "support/Json.h"

#include <chrono>
#include <fstream>
#include <sstream>

using namespace spvfuzz;
using namespace spvfuzz::obs;

const char *obs::journalEventKindName(JournalEventKind Kind) {
  switch (Kind) {
  case JournalEventKind::CampaignStarted:
    return "CampaignStarted";
  case JournalEventKind::WaveCommitted:
    return "WaveCommitted";
  case JournalEventKind::BugFound:
    return "BugFound";
  case JournalEventKind::ReductionStep:
    return "ReductionStep";
  case JournalEventKind::PostReduceStep:
    return "PostReduceStep";
  case JournalEventKind::BugAttributed:
    return "BugAttributed";
  case JournalEventKind::TargetQuarantined:
    return "TargetQuarantined";
  case JournalEventKind::CheckpointSaved:
    return "CheckpointSaved";
  case JournalEventKind::CampaignFinished:
    return "CampaignFinished";
  case JournalEventKind::WorkerAttached:
    return "WorkerAttached";
  case JournalEventKind::WorkerExited:
    return "WorkerExited";
  case JournalEventKind::ShardLeased:
    return "ShardLeased";
  case JournalEventKind::ShardCompleted:
    return "ShardCompleted";
  case JournalEventKind::LeaseExpired:
    return "LeaseExpired";
  }
  return "Unknown";
}

bool obs::journalEventKindFromName(const std::string &Name,
                                   JournalEventKind &Out) {
  static const JournalEventKind All[] = {
      JournalEventKind::CampaignStarted,  JournalEventKind::WaveCommitted,
      JournalEventKind::BugFound,         JournalEventKind::ReductionStep,
      JournalEventKind::PostReduceStep,   JournalEventKind::BugAttributed,
      JournalEventKind::TargetQuarantined, JournalEventKind::CheckpointSaved,
      JournalEventKind::CampaignFinished, JournalEventKind::WorkerAttached,
      JournalEventKind::WorkerExited,     JournalEventKind::ShardLeased,
      JournalEventKind::ShardCompleted,   JournalEventKind::LeaseExpired,
  };
  for (JournalEventKind Kind : All)
    if (Name == journalEventKindName(Kind)) {
      Out = Kind;
      return true;
    }
  return false;
}

namespace {

void appendField(std::string &Out, const char *Key, const std::string &S) {
  Out += ",\"";
  Out += Key;
  Out += "\":";
  json::appendString(Out, S);
}

void appendField(std::string &Out, const char *Key, uint64_t Value) {
  Out += ",\"";
  Out += Key;
  Out += "\":";
  Out += std::to_string(Value);
}

} // namespace

std::string obs::serializeJournalEvent(const JournalEvent &Event) {
  std::string Out = "{\"v\":" + std::to_string(JournalFormatVersion);
  appendField(Out, "seq", Event.Seq);
  appendField(Out, "kind", std::string(journalEventKindName(Event.Kind)));
  switch (Event.Kind) {
  case JournalEventKind::CampaignStarted:
    appendField(Out, "campaign", Event.Campaign);
    appendField(Out, "seed", Event.Seed);
    appendField(Out, "limit", Event.Limit);
    appendField(Out, "total", Event.Total);
    break;
  case JournalEventKind::WaveCommitted:
    appendField(Out, "phase", Event.Phase);
    appendField(Out, "wave", Event.Wave);
    appendField(Out, "total", Event.Total);
    appendField(Out, "count", Event.Count);
    break;
  case JournalEventKind::BugFound:
    appendField(Out, "phase", Event.Phase);
    appendField(Out, "wave", Event.Wave);
    appendField(Out, "test", Event.Test);
    appendField(Out, "target", Event.Target);
    appendField(Out, "signature", Event.Signature);
    break;
  case JournalEventKind::ReductionStep:
    appendField(Out, "phase", Event.Phase);
    appendField(Out, "wave", Event.Wave);
    appendField(Out, "test", Event.Test);
    appendField(Out, "target", Event.Target);
    appendField(Out, "signature", Event.Signature);
    appendField(Out, "unreduced", Event.Unreduced);
    appendField(Out, "reduced", Event.Reduced);
    appendField(Out, "minimized", Event.Minimized);
    appendField(Out, "checks", Event.Checks);
    break;
  case JournalEventKind::PostReduceStep:
    appendField(Out, "phase", Event.Phase);
    appendField(Out, "wave", Event.Wave);
    appendField(Out, "test", Event.Test);
    appendField(Out, "target", Event.Target);
    appendField(Out, "signature", Event.Signature);
    appendField(Out, "pass", Event.Pass);
    appendField(Out, "attempted", Event.Attempted);
    appendField(Out, "accepted", Event.Accepted);
    appendField(Out, "checks", Event.Checks);
    break;
  case JournalEventKind::BugAttributed:
    appendField(Out, "target", Event.Target);
    appendField(Out, "signature", Event.Signature);
    appendField(Out, "pass", Event.Pass);
    appendField(Out, "test", Event.Test);
    appendField(Out, "count", Event.Count);
    appendField(Out, "checks", Event.Checks);
    break;
  case JournalEventKind::TargetQuarantined:
    appendField(Out, "phase", Event.Phase);
    appendField(Out, "wave", Event.Wave);
    appendField(Out, "target", Event.Target);
    break;
  case JournalEventKind::CheckpointSaved:
    appendField(Out, "phase", Event.Phase);
    appendField(Out, "wave", Event.Wave);
    break;
  case JournalEventKind::CampaignFinished:
    appendField(Out, "campaign", Event.Campaign);
    appendField(Out, "count", Event.Count);
    break;
  case JournalEventKind::WorkerAttached:
  case JournalEventKind::WorkerExited:
    appendField(Out, "worker", Event.Worker);
    appendField(Out, "count", Event.Count);
    break;
  case JournalEventKind::ShardLeased:
  case JournalEventKind::ShardCompleted:
  case JournalEventKind::LeaseExpired:
    appendField(Out, "phase", Event.Phase);
    appendField(Out, "wave", Event.Wave);
    appendField(Out, "worker", Event.Worker);
    appendField(Out, "count", Event.Count);
    break;
  }
  appendField(Out, "wall_us", Event.WallUs);
  Out += "}";
  return Out;
}

bool obs::parseJournalLine(const std::string &Line, JournalEvent &Out,
                           std::string &Error) {
  json::Value Object;
  if (!json::parse(Line, Object, Error))
    return false;
  if (!Object.isObject()) {
    Error = Object.error("expected an object");
    return false;
  }
  const json::Value *VersionField = Object.find("v");
  if (!VersionField || !VersionField->isNumber()) {
    Error = "missing journal format version field 'v'";
    return false;
  }
  uint64_t Version = 0;
  if (!VersionField->toCount(Version, Error))
    return false;
  if (Version == 0 || Version > JournalFormatVersion) {
    Error = "unsupported journal format version " + std::to_string(Version) +
            " (this build understands up to " +
            std::to_string(JournalFormatVersion) + ")";
    return false;
  }
  const json::Value *KindField = Object.find("kind");
  if (!KindField || !KindField->isString()) {
    Error = "missing event kind";
    return false;
  }
  if (!journalEventKindFromName(KindField->Text, Out.Kind)) {
    Error = "unknown event kind '" + KindField->Text + "'";
    return false;
  }
  return Object.getCount("seq", Out.Seq, Error) &&
         Object.getString("campaign", Out.Campaign, Error) &&
         Object.getString("phase", Out.Phase, Error) &&
         Object.getString("target", Out.Target, Error) &&
         Object.getString("signature", Out.Signature, Error) &&
         Object.getString("pass", Out.Pass, Error) &&
         Object.getCount("wave", Out.Wave, Error) &&
         Object.getCount("total", Out.Total, Error) &&
         Object.getCount("test", Out.Test, Error) &&
         Object.getCount("count", Out.Count, Error) &&
         Object.getCount("seed", Out.Seed, Error) &&
         Object.getCount("limit", Out.Limit, Error) &&
         Object.getCount("unreduced", Out.Unreduced, Error) &&
         Object.getCount("reduced", Out.Reduced, Error) &&
         Object.getCount("minimized", Out.Minimized, Error) &&
         Object.getCount("checks", Out.Checks, Error) &&
         Object.getCount("attempted", Out.Attempted, Error) &&
         Object.getCount("accepted", Out.Accepted, Error) &&
         Object.getCount("worker", Out.Worker, Error) &&
         Object.getCount("wall_us", Out.WallUs, Error);
}

std::string obs::formatJournalEvent(const JournalEvent &Event) {
  std::ostringstream Out;
  Out << "#" << Event.Seq << " " << journalEventKindName(Event.Kind);
  switch (Event.Kind) {
  case JournalEventKind::CampaignStarted:
    Out << " campaign=" << Event.Campaign << " seed=" << Event.Seed
        << " limit=" << Event.Limit << " tests=" << Event.Total;
    break;
  case JournalEventKind::WaveCommitted:
    Out << " [" << Event.Phase << "] wave " << Event.Wave << "/"
        << Event.Total << " count=" << Event.Count;
    break;
  case JournalEventKind::BugFound:
    Out << " [" << Event.Phase << "] test " << Event.Test
        << " target=" << Event.Target << " sig=" << Event.Signature;
    break;
  case JournalEventKind::ReductionStep:
    Out << " [" << Event.Phase << "] test " << Event.Test
        << " target=" << Event.Target << " sig=" << Event.Signature << " "
        << Event.Unreduced << "->" << Event.Reduced << " instrs, "
        << Event.Minimized << " transformations, " << Event.Checks
        << " checks";
    break;
  case JournalEventKind::PostReduceStep:
    Out << " [" << Event.Phase << "] test " << Event.Test
        << " target=" << Event.Target << " pass=" << Event.Pass << " "
        << Event.Accepted << "/" << Event.Attempted << " accepted, "
        << Event.Checks << " checks";
    break;
  case JournalEventKind::BugAttributed:
    Out << " target=" << Event.Target << " sig=" << Event.Signature
        << " culprit=" << Event.Pass << " (" << Event.Checks << " probes)";
    break;
  case JournalEventKind::TargetQuarantined:
    Out << " [" << Event.Phase << "] target=" << Event.Target << " at wave "
        << Event.Wave;
    break;
  case JournalEventKind::CheckpointSaved:
    Out << " [" << Event.Phase << "] wave " << Event.Wave;
    break;
  case JournalEventKind::CampaignFinished:
    Out << " campaign=" << Event.Campaign << " distinct_bugs=" << Event.Count;
    break;
  case JournalEventKind::WorkerAttached:
    Out << " worker=" << Event.Worker << " pid=" << Event.Count;
    break;
  case JournalEventKind::WorkerExited:
    Out << " worker=" << Event.Worker << " pid=" << Event.Count;
    break;
  case JournalEventKind::ShardLeased:
    Out << " [" << Event.Phase << "] wave " << Event.Wave << " worker="
        << Event.Worker << " job=" << Event.Count;
    break;
  case JournalEventKind::ShardCompleted:
    Out << " [" << Event.Phase << "] wave " << Event.Wave << " worker="
        << Event.Worker << " job=" << Event.Count;
    break;
  case JournalEventKind::LeaseExpired:
    Out << " [" << Event.Phase << "] wave " << Event.Wave << " worker="
        << Event.Worker << " job=" << Event.Count;
    break;
  }
  return Out.str();
}

std::string obs::journalPathFor(const std::string &StoreDir) {
  return StoreDir + "/journal/events.jsonl";
}

std::string obs::journalCampaign(const std::string &StoreDir) {
  std::ifstream In(journalPathFor(StoreDir));
  std::string Line, Error;
  JournalEvent Event;
  if (std::getline(In, Line) && parseJournalLine(Line, Event, Error) &&
      Event.Kind == JournalEventKind::CampaignStarted)
    return Event.Campaign;
  return "";
}

std::string obs::servePathFor(const std::string &StoreDir) {
  return StoreDir + "/journal/serve.jsonl";
}

//===----------------------------------------------------------------------===//
// JournalWriter
//===----------------------------------------------------------------------===//

namespace {

uint64_t wallClockUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

} // namespace

std::unique_ptr<JournalWriter> JournalWriter::open(const std::string &StoreDir,
                                                   bool Resume,
                                                   bool Deterministic,
                                                   std::string &Error) {
  ensureDir(StoreDir + "/journal");
  return openAt(journalPathFor(StoreDir), Resume, Deterministic, Error);
}

std::unique_ptr<JournalWriter> JournalWriter::openAt(const std::string &Path,
                                                     bool Resume,
                                                     bool Deterministic,
                                                     std::string &Error) {
  std::unique_ptr<JournalWriter> Writer(new JournalWriter());
  Writer->Path = Path;
  Writer->Deterministic = Deterministic;

  uint64_t KeepBytes = 0;
  std::string Bytes, Missing;
  if (Resume && readFileBytes(Path, Bytes, Missing)) {
    // Keep the parseable prefix of the existing journal; a torn or
    // malformed tail (mid-write crash) is truncated away. A journal from
    // a newer format version is refused rather than extended.
    for (size_t End; (End = Bytes.find('\n', KeepBytes)) != std::string::npos;
         KeepBytes = End + 1) {
      if (End == KeepBytes)
        continue; // blank line
      JournalEvent Event;
      std::string LineError;
      if (!parseJournalLine(Bytes.substr(KeepBytes, End - KeepBytes), Event,
                            LineError)) {
        if (LineError.rfind("unsupported journal format version", 0) == 0) {
          Error = Path + ": " + LineError;
          return nullptr;
        }
        break; // torn/corrupt line: keep the prefix before it
      }
      Writer->Events.push_back(std::move(Event));
      Writer->LineEnds.push_back(End + 1);
    }
    if (!Writer->Events.empty())
      Writer->NextSeq = Writer->Events.back().Seq + 1;
  }

  Writer->File.open(Path, /*Truncate=*/!Resume);
  if (Resume)
    Writer->File.truncate(KeepBytes); // drops a torn tail, if any
  return Writer;
}

JournalWriter::~JournalWriter() = default;

uint64_t JournalWriter::append(JournalEvent Event) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Event.Seq = NextSeq++;
  Event.WallUs = Deterministic ? 0 : wallClockUs();
  std::string Line = serializeJournalEvent(Event) + "\n";
  // Each line reaches the OS as it is appended, for `tail --follow`.
  File.append(Line);
  File.flush();
  uint64_t PrevEnd = LineEnds.empty() ? 0 : LineEnds.back();
  LineEnds.push_back(PrevEnd + Line.size());
  uint64_t Seq = Event.Seq;
  Events.push_back(std::move(Event));
  return Seq;
}

void JournalWriter::commit() {
  std::lock_guard<std::mutex> Lock(Mutex);
  File.sync();
}

void JournalWriter::truncateForPhaseResume(const std::string &Phase,
                                           uint64_t StartWave) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // The checkpoint the phase resumes from was journaled before it was
  // saved, so its CheckpointSaved line is kept; the phase's first event
  // past StartWave belongs to the waves about to be recomputed.
  size_t Cut = Events.size();
  for (size_t I = 0; I < Events.size(); ++I)
    if (Events[I].Phase == Phase && Events[I].Wave > StartWave) {
      Cut = I;
      break;
    }
  if (Cut == Events.size())
    return;
  uint64_t KeepBytes = Cut == 0 ? 0 : LineEnds[Cut - 1];
  Events.resize(Cut);
  LineEnds.resize(Cut);
  NextSeq = Events.empty() ? 0 : Events.back().Seq + 1;
  File.truncate(KeepBytes);
}

bool JournalWriter::empty() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.empty();
}

JournalEventKind JournalWriter::lastKind() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.empty() ? JournalEventKind::CampaignStarted
                        : Events.back().Kind;
}

//===----------------------------------------------------------------------===//
// JournalTailer
//===----------------------------------------------------------------------===//

bool JournalTailer::poll(std::vector<JournalEvent> &Out, std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return true; // not created yet: no events, not an error
  In.seekg(static_cast<std::streamoff>(Offset));
  if (!In)
    return true;
  std::ostringstream Chunk;
  Chunk << In.rdbuf();
  std::string Bytes = Chunk.str();
  if (Bytes.empty())
    return true;
  Offset += Bytes.size();
  Pending += Bytes;

  size_t Start = 0;
  while (true) {
    size_t Newline = Pending.find('\n', Start);
    if (Newline == std::string::npos)
      break;
    std::string Line = Pending.substr(Start, Newline - Start);
    Start = Newline + 1;
    ++LineNo;
    if (Line.empty())
      continue;
    JournalEvent Event;
    std::string LineError;
    if (!parseJournalLine(Line, Event, LineError)) {
      Error = Path + ":" + std::to_string(LineNo) + ": " + LineError;
      return false;
    }
    Out.push_back(std::move(Event));
  }
  Pending.erase(0, Start);
  return true;
}

bool obs::readJournalFile(const std::string &Path,
                          std::vector<JournalEvent> &Events,
                          std::string &Error, bool *TornTail) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  In.close();
  JournalTailer Tailer(Path);
  if (!Tailer.poll(Events, Error))
    return false;
  if (TornTail)
    *TornTail = Tailer.hasPartial();
  return true;
}

//===----------------------------------------------------------------------===//
// JournalObserver
//===----------------------------------------------------------------------===//

void JournalObserver::onPhaseStarted(const std::string &Phase,
                                     size_t StartWave, size_t) {
  // The store resumes this phase at StartWave: drop journaled events from
  // the waves about to be recomputed (they will be re-appended
  // byte-identically in the same serial order).
  Writer.truncateForPhaseResume(Phase, StartWave);
}

void JournalObserver::onBugFound(const std::string &Phase, size_t WaveEnd,
                                 size_t TestIndex, const std::string &Target,
                                 const std::string &Signature) {
  JournalEvent Event;
  Event.Kind = JournalEventKind::BugFound;
  Event.Phase = Phase;
  Event.Wave = WaveEnd;
  Event.Test = TestIndex;
  Event.Target = Target;
  Event.Signature = Signature;
  Writer.append(std::move(Event));
}

void JournalObserver::onTargetQuarantined(const std::string &Phase,
                                          size_t WaveEnd,
                                          const std::string &Target) {
  JournalEvent Event;
  Event.Kind = JournalEventKind::TargetQuarantined;
  Event.Phase = Phase;
  Event.Wave = WaveEnd;
  Event.Target = Target;
  Writer.append(std::move(Event));
}

void JournalObserver::onReductionStep(const std::string &Phase,
                                      size_t WaveEnd,
                                      const ReductionRecord &Record) {
  JournalEvent Event;
  Event.Kind = JournalEventKind::ReductionStep;
  Event.Phase = Phase;
  Event.Wave = WaveEnd;
  Event.Test = Record.TestIndex;
  Event.Target = Record.TargetName;
  Event.Signature = Record.Signature;
  Event.Unreduced = Record.UnreducedCount;
  Event.Reduced = Record.ReducedCount;
  Event.Minimized = Record.MinimizedLength;
  Event.Checks = Record.Checks;
  Writer.append(std::move(Event));
}

void JournalObserver::onPostReduceStep(const std::string &Phase,
                                       size_t WaveEnd,
                                       const ReductionRecord &Record,
                                       const PostReducePassStats &Stat) {
  JournalEvent Event;
  Event.Kind = JournalEventKind::PostReduceStep;
  Event.Phase = Phase;
  Event.Wave = WaveEnd;
  Event.Test = Record.TestIndex;
  Event.Target = Record.TargetName;
  Event.Signature = Record.Signature;
  Event.Pass = Stat.Pass;
  Event.Attempted = Stat.Attempted;
  Event.Accepted = Stat.Accepted;
  Event.Checks = Stat.Checks;
  Writer.append(std::move(Event));
}

void JournalObserver::onWaveCommitted(const std::string &Phase,
                                      size_t WaveEnd, size_t Total,
                                      size_t Count) {
  JournalEvent Event;
  Event.Kind = JournalEventKind::WaveCommitted;
  Event.Phase = Phase;
  Event.Wave = WaveEnd;
  Event.Total = Total;
  Event.Count = Count;
  Writer.append(std::move(Event));
}

void JournalObserver::onCheckpointSaved(const std::string &Phase,
                                        size_t WaveEnd) {
  JournalEvent Event;
  Event.Kind = JournalEventKind::CheckpointSaved;
  Event.Phase = Phase;
  Event.Wave = WaveEnd;
  Writer.append(std::move(Event));
  // Durable before the store saves: the journal stays at or ahead of it.
  Writer.commit();
}
