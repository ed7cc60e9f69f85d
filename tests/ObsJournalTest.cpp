//===- tests/ObsJournalTest.cpp - Event journal contract ------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-journal contract of the observability plane: every event kind
/// round-trips through its JSONL line; a journal written at `--jobs 8` is
/// byte-identical to one written at `--jobs 1` under deterministic mode; a
/// campaign killed at any checkpoint leaves a parseable journal that is a
/// strict prefix of the uninterrupted run's, and resuming reproduces the
/// uninterrupted journal exactly; torn tails from mid-write crashes are
/// truncated away on resume, and newer-format journals are refused.
///
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "obs/Monitor.h"
#include "store/CampaignStore.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

#include <sys/stat.h>
#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::obs;

namespace {

std::string uniqueDir(const std::string &Hint) {
  static int Counter = 0;
  std::string Dir = ::testing::TempDir() + "spvfuzz-journal-" + Hint + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(Counter++);
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void appendRaw(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::app);
  Out << Bytes;
}

//===----------------------------------------------------------------------===//
// Line format
//===----------------------------------------------------------------------===//

JournalEvent sampleEvent(JournalEventKind Kind) {
  JournalEvent Event;
  Event.Kind = Kind;
  Event.Seq = 7;
  Event.Campaign = "c-1234";
  Event.Phase = "eval/spirv-fuzz/40";
  Event.Target = "Mali";
  Event.Signature = "crash \"quoted\"\nline";
  Event.Wave = 64;
  Event.Total = 100;
  Event.Test = 41;
  Event.Count = 3;
  Event.Seed = 5;
  Event.Limit = 120;
  Event.Unreduced = 900;
  Event.Reduced = 40;
  Event.Minimized = 6;
  Event.Checks = 210;
  Event.Pass = "strip-unused-defs";
  Event.Attempted = 9;
  Event.Accepted = 4;
  Event.WallUs = 1722000000000000ull;
  return Event;
}

TEST(Journal, EveryKindRoundTripsThroughItsLine) {
  for (JournalEventKind Kind :
       {JournalEventKind::CampaignStarted, JournalEventKind::WaveCommitted,
        JournalEventKind::BugFound, JournalEventKind::ReductionStep,
        JournalEventKind::PostReduceStep,
        JournalEventKind::TargetQuarantined, JournalEventKind::CheckpointSaved,
        JournalEventKind::CampaignFinished}) {
    JournalEvent Event = sampleEvent(Kind);
    std::string Line = serializeJournalEvent(Event);
    JournalEvent Parsed;
    std::string Error;
    ASSERT_TRUE(parseJournalLine(Line, Parsed, Error))
        << journalEventKindName(Kind) << ": " << Error;
    EXPECT_EQ(Parsed.Kind, Kind);
    EXPECT_EQ(Parsed.Seq, Event.Seq);
    EXPECT_EQ(Parsed.WallUs, Event.WallUs);
    // Re-serializing the parsed event must reproduce the line exactly —
    // the byte-diff guarantees below depend on it.
    EXPECT_EQ(serializeJournalEvent(Parsed), Line)
        << journalEventKindName(Kind);
    // The human rendering names the kind verbatim (tail/CI grep for it).
    EXPECT_NE(formatJournalEvent(Parsed).find(journalEventKindName(Kind)),
              std::string::npos);
  }
}

TEST(Journal, KindNamesRoundTrip) {
  JournalEventKind Kind;
  EXPECT_TRUE(journalEventKindFromName("BugFound", Kind));
  EXPECT_EQ(Kind, JournalEventKind::BugFound);
  EXPECT_FALSE(journalEventKindFromName("NotAKind", Kind));
}

TEST(Journal, ParserRejectsBadLinesWithDiagnostics) {
  JournalEvent Event;
  std::string Error;

  EXPECT_FALSE(parseJournalLine(
      R"({"v":4,"seq":0,"kind":"BugFound","wall_us":0})", Event, Error));
  EXPECT_NE(Error.find("unsupported journal format version 4"),
            std::string::npos)
      << Error;

  EXPECT_FALSE(parseJournalLine(R"({"v":1,"seq":0,"kind":"Nope"})", Event,
                                Error));
  EXPECT_NE(Error.find("unknown event kind 'Nope'"), std::string::npos)
      << Error;

  EXPECT_FALSE(
      parseJournalLine(R"({"seq":0,"kind":"BugFound"})", Event, Error));
  EXPECT_NE(Error.find("missing journal format version"), std::string::npos)
      << Error;

  // Malformed JSON reports a column, never asserts.
  EXPECT_FALSE(parseJournalLine(R"({"v":1,)", Event, Error));
  EXPECT_NE(Error.find("column"), std::string::npos) << Error;
}

TEST(Journal, ParserRejectsMalformedNumbers) {
  JournalEvent Event;
  std::string Error;
  EXPECT_FALSE(parseJournalLine(R"({"v":1-2,"seq":0,"kind":"BugFound"})",
                                Event, Error));
  EXPECT_EQ(Error, "expected ',' or '}' at line 1, column 7");
}

TEST(Journal, ParserRejectsBadUnicodeEscapes) {
  JournalEvent Event;
  std::string Error;
  EXPECT_FALSE(parseJournalLine(
      R"({"v":3,"seq":0,"kind":"BugFound","target":"\u00zz"})", Event,
      Error));
  EXPECT_EQ(Error, "invalid \\u escape at line 1, column 44");
}

TEST(Journal, ParserRejectsCountsOutsideUint64) {
  for (const char *Seq : {"-5", "18446744073709551616", "1e20"}) {
    JournalEvent Event;
    std::string Error;
    EXPECT_FALSE(parseJournalLine(std::string(R"({"v":3,"seq":)") + Seq +
                                      R"(,"kind":"BugFound"})",
                                  Event, Error))
        << Seq;
    EXPECT_EQ(Error,
              "expected a whole number in [0, 2^64) at line 1, column 14")
        << Seq;
  }
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

TEST(Journal, WriterAssignsSequenceAndWallClock) {
  std::string Dir = uniqueDir("writer");
  std::string Error;
  std::unique_ptr<JournalWriter> Writer =
      JournalWriter::open(Dir, /*Resume=*/false, /*Deterministic=*/false,
                          Error);
  ASSERT_NE(Writer, nullptr) << Error;
  EXPECT_TRUE(Writer->empty());

  JournalEvent Started;
  Started.Kind = JournalEventKind::CampaignStarted;
  EXPECT_EQ(Writer->append(Started), 0u);
  JournalEvent Wave;
  Wave.Kind = JournalEventKind::WaveCommitted;
  EXPECT_EQ(Writer->append(Wave), 1u);
  Writer->commit();

  EXPECT_FALSE(Writer->empty());
  EXPECT_EQ(Writer->lastKind(), JournalEventKind::WaveCommitted);
  ASSERT_EQ(Writer->events().size(), 2u);
  EXPECT_GT(Writer->events()[0].WallUs, 0u) << "wall clock stamp expected";

  // Resume continues the sequence.
  Writer.reset();
  Writer = JournalWriter::open(Dir, /*Resume=*/true, false, Error);
  ASSERT_NE(Writer, nullptr) << Error;
  ASSERT_EQ(Writer->events().size(), 2u);
  EXPECT_EQ(Writer->append(JournalEvent{}), 2u);

  // A fresh (non-resume) open starts the journal over.
  Writer.reset();
  Writer = JournalWriter::open(Dir, /*Resume=*/false, false, Error);
  ASSERT_NE(Writer, nullptr) << Error;
  EXPECT_TRUE(Writer->empty());
  EXPECT_EQ(readAll(journalPathFor(Dir)), "");
}

TEST(Journal, ResumeTruncatesTornAndCorruptTails) {
  std::string Dir = uniqueDir("torn");
  std::string Error;
  std::unique_ptr<JournalWriter> Writer =
      JournalWriter::open(Dir, false, /*Deterministic=*/true, Error);
  ASSERT_NE(Writer, nullptr) << Error;
  Writer->append(sampleEvent(JournalEventKind::CampaignStarted));
  Writer->append(sampleEvent(JournalEventKind::WaveCommitted));
  Writer.reset();
  const std::string CleanBytes = readAll(journalPathFor(Dir));

  // A mid-write crash leaves a partial line without a trailing newline.
  appendRaw(journalPathFor(Dir), R"({"v":1,"seq":2,"kind":"WaveCo)");
  Writer = JournalWriter::open(Dir, /*Resume=*/true, true, Error);
  ASSERT_NE(Writer, nullptr) << Error;
  EXPECT_EQ(Writer->events().size(), 2u);
  Writer.reset();
  EXPECT_EQ(readAll(journalPathFor(Dir)), CleanBytes);

  // A complete-but-corrupt line is also dropped, keeping the prefix.
  appendRaw(journalPathFor(Dir), "not json at all\n");
  Writer = JournalWriter::open(Dir, /*Resume=*/true, true, Error);
  ASSERT_NE(Writer, nullptr) << Error;
  EXPECT_EQ(Writer->events().size(), 2u);
  Writer.reset();
  EXPECT_EQ(readAll(journalPathFor(Dir)), CleanBytes);

  // A journal written by a newer format version is refused outright —
  // extending it could silently misinterpret fields.
  appendRaw(journalPathFor(Dir),
            R"({"v":9,"seq":2,"kind":"WaveCommitted","wall_us":0})"
            "\n");
  Writer = JournalWriter::open(Dir, /*Resume=*/true, true, Error);
  EXPECT_EQ(Writer, nullptr);
  EXPECT_NE(Error.find("unsupported journal format version"),
            std::string::npos)
      << Error;
}

TEST(Journal, TruncateForPhaseResumeDropsRecomputedSuffix) {
  std::string Dir = uniqueDir("truncate");
  std::string Error;
  std::unique_ptr<JournalWriter> Writer =
      JournalWriter::open(Dir, false, /*Deterministic=*/true, Error);
  ASSERT_NE(Writer, nullptr) << Error;

  auto Phased = [](JournalEventKind Kind, const std::string &Phase,
                   uint64_t Wave) {
    JournalEvent Event;
    Event.Kind = Kind;
    Event.Phase = Phase;
    Event.Wave = Wave;
    return Event;
  };
  Writer->append(sampleEvent(JournalEventKind::CampaignStarted)); // seq 0
  Writer->append(Phased(JournalEventKind::BugFound, "eval/a", 32));
  Writer->append(Phased(JournalEventKind::WaveCommitted, "eval/a", 32));
  Writer->append(Phased(JournalEventKind::WaveCommitted, "eval/a", 64));
  Writer->append(Phased(JournalEventKind::WaveCommitted, "reduce/a", 32));

  // Resuming eval/a at wave 32 recomputes wave 64 — its events, and every
  // later phase's, are dropped; events at or before the boundary stay.
  Writer->truncateForPhaseResume("eval/a", 32);
  ASSERT_EQ(Writer->events().size(), 3u);
  EXPECT_EQ(Writer->events().back().Wave, 32u);

  // The sequence restarts where the cut happened, so re-appended events
  // reproduce the dropped byte range exactly.
  EXPECT_EQ(Writer->append(Phased(JournalEventKind::WaveCommitted, "eval/a",
                                  64)),
            3u);

  // Nothing past the boundary: a no-op.
  Writer->truncateForPhaseResume("reduce/a", 32);
  EXPECT_EQ(Writer->events().size(), 4u);

  Writer.reset();
  std::vector<JournalEvent> OnDisk;
  ASSERT_TRUE(readJournalFile(journalPathFor(Dir), OnDisk, Error)) << Error;
  ASSERT_EQ(OnDisk.size(), 4u);
  EXPECT_EQ(OnDisk[3].Seq, 3u);
}

// The checkpoint a phase resumes from was journaled before it was saved;
// its CheckpointSaved line stays, once, and the final checkpoint's second
// line at the same wave goes, because the resumed phase saves it again.
TEST(Journal, TruncateKeepsTheResumedCheckpointOnce) {
  std::string Dir = uniqueDir("truncate-checkpoint");
  std::string Error;
  std::unique_ptr<JournalWriter> Writer =
      JournalWriter::open(Dir, false, /*Deterministic=*/true, Error);
  ASSERT_NE(Writer, nullptr) << Error;
  auto Phased = [](JournalEventKind Kind, uint64_t Wave) {
    JournalEvent Event;
    Event.Kind = Kind;
    Event.Phase = "eval/a";
    Event.Wave = Wave;
    return Event;
  };
  for (uint64_t Wave : {32, 40}) {
    Writer->append(Phased(JournalEventKind::WaveCommitted, Wave));
    Writer->append(Phased(JournalEventKind::CheckpointSaved, Wave));
  }
  Writer->append(Phased(JournalEventKind::CheckpointSaved, 40)); // final

  Writer->truncateForPhaseResume("eval/a", 40);
  ASSERT_EQ(Writer->events().size(), 4u);
  EXPECT_EQ(Writer->lastKind(), JournalEventKind::CheckpointSaved);

  Writer->truncateForPhaseResume("eval/a", 32);
  ASSERT_EQ(Writer->events().size(), 2u);
  EXPECT_EQ(Writer->events().back().Wave, 32u);
}

// Every write path of the journal reports a failure: appends and fsyncs
// to a full device throw, and a failed append journals nothing.
TEST(Journal, WritesToAFullDeviceThrow) {
  std::string Error;
  std::unique_ptr<JournalWriter> Writer = JournalWriter::openAt(
      "/dev/full", /*Resume=*/false, /*Deterministic=*/true, Error);
  ASSERT_NE(Writer, nullptr) << Error;
  EXPECT_THROW(Writer->append(sampleEvent(JournalEventKind::CampaignStarted)),
               FileWriteError);
  EXPECT_TRUE(Writer->empty());
  EXPECT_THROW(Writer->commit(), FileWriteError);
}

//===----------------------------------------------------------------------===//
// Tailer
//===----------------------------------------------------------------------===//

TEST(Journal, TailerDeliversOnlyCompleteLines) {
  std::string Dir = uniqueDir("tailer");
  std::string Path = journalPathFor(Dir);
  ::mkdir((Dir + "/journal").c_str(), 0755);

  JournalTailer Tailer(Path);
  std::vector<JournalEvent> Events;
  std::string Error;

  // Journal not created yet: not an error, just no events.
  EXPECT_TRUE(Tailer.poll(Events, Error));
  EXPECT_TRUE(Events.empty());

  std::string Line =
      serializeJournalEvent(sampleEvent(JournalEventKind::BugFound));
  appendRaw(Path, Line.substr(0, Line.size() / 2));
  EXPECT_TRUE(Tailer.poll(Events, Error));
  EXPECT_TRUE(Events.empty()) << "half a line is not an event";
  EXPECT_TRUE(Tailer.hasPartial());

  appendRaw(Path, Line.substr(Line.size() / 2) + "\n" + Line + "\n");
  EXPECT_TRUE(Tailer.poll(Events, Error));
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_FALSE(Tailer.hasPartial());
  EXPECT_EQ(Events[0].Kind, JournalEventKind::BugFound);

  // A malformed line is a line-accurate error.
  appendRaw(Path, "garbage\n");
  EXPECT_FALSE(Tailer.poll(Events, Error));
  EXPECT_NE(Error.find(":3:"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// Engine integration: determinism and crash safety
//===----------------------------------------------------------------------===//

constexpr size_t Tests = 40; // two waves per tool at ShardSize 32

ExecutionPolicy policyFor(uint64_t Seed, size_t Jobs) {
  return ExecutionPolicy{}.withSeed(Seed).withJobs(Jobs)
      .withTransformationLimit(120);
}

/// Runs a full campaign (bug finding, then reduction+dedup) with a
/// deterministic journal attached, and returns the journal's bytes.
std::string runJournaled(const ExecutionPolicy &Policy,
                         CampaignCheckpointer *Checkpointer,
                         const std::string &Dir, bool Resume) {
  std::string Error;
  std::unique_ptr<JournalWriter> Writer =
      JournalWriter::open(Dir, Resume, /*Deterministic=*/true, Error);
  EXPECT_NE(Writer, nullptr) << Error;
  JournalObserver Observer(*Writer);

  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, TargetFleet{});
  if (Checkpointer)
    Engine.setCheckpointer(Checkpointer);
  Engine.setObserver(&Observer);

  BugFindingConfig Config;
  Config.TestsPerTool = Tests;
  Engine.runBugFinding(Config);
  ReductionConfig RC;
  RC.TestsPerTool = Tests;
  Engine.runDedup(RC);

  Writer.reset();
  return readAll(journalPathFor(Dir));
}

TEST(JournalEngine, DeterministicJournalIdenticalAcrossJobCounts) {
  std::string Serial = runJournaled(policyFor(5, 1), nullptr,
                                    uniqueDir("jobs1"), false);
  std::string Parallel = runJournaled(policyFor(5, 8), nullptr,
                                      uniqueDir("jobs8"), false);
  EXPECT_EQ(Serial, Parallel);
  EXPECT_NE(Serial.find("\"kind\":\"BugFound\""), std::string::npos)
      << "campaign should journal at least one bug";

  // Every wall clock stamp is zeroed under deterministic mode.
  size_t Stamps = 0;
  for (size_t At = Serial.find("\"wall_us\":"); At != std::string::npos;
       At = Serial.find("\"wall_us\":", At + 1), ++Stamps)
    EXPECT_EQ(Serial.compare(At, 13, "\"wall_us\":0}\n"), 0)
        << Serial.substr(At, 20);
  EXPECT_GT(Stamps, 0u);
}

/// Forwards to a real store but throws (a simulated crash) when the save
/// budget runs out — before the inner save, like a crash mid-commit.
class AbortAfter : public CampaignCheckpointer {
public:
  AbortAfter(CampaignCheckpointer &Inner, size_t Saves)
      : Inner(Inner), Remaining(Saves) {}

  bool loadEvaluation(const std::string &Phase,
                      EvaluationCheckpoint &Out) override {
    return Inner.loadEvaluation(Phase, Out);
  }
  void saveEvaluation(const EvaluationCheckpoint &Checkpoint) override {
    spend();
    Inner.saveEvaluation(Checkpoint);
  }
  bool loadReduction(const std::string &Phase,
                     ReductionCheckpoint &Out) override {
    return Inner.loadReduction(Phase, Out);
  }
  void saveReduction(const ReductionCheckpoint &Checkpoint) override {
    spend();
    Inner.saveReduction(Checkpoint);
  }
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &Input, const Module &Reduced,
                        const TransformationSequence &Minimized) override {
    Inner.recordReproducer(Record, Original, Input, Reduced, Minimized);
  }

  size_t Spent = 0;

private:
  void spend() {
    if (Remaining == 0)
      throw std::runtime_error("simulated crash at checkpoint");
    --Remaining;
    ++Spent;
  }

  CampaignCheckpointer &Inner;
  size_t Remaining;
};

TEST(JournalEngine, CrashedJournalIsPrefixAndResumeReproducesIt) {
  // The uninterrupted reference run, journaled and counted.
  std::string Baseline;
  size_t TotalSaves;
  {
    std::string Dir = uniqueDir("baseline");
    std::string Error;
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Dir, policyFor(5, 1), Error);
    ASSERT_NE(Store, nullptr) << Error;
    AbortAfter Counting(*Store, size_t(-1));
    Baseline = runJournaled(policyFor(5, 1), &Counting, Dir, false);
    TotalSaves = Counting.Spent;
    ASSERT_GT(TotalSaves, 2u);
  }
  ASSERT_NE(Baseline.find("\"kind\":\"CheckpointSaved\""), std::string::npos);

  // Kill the campaign at the first, a middle, and the last checkpoint.
  for (size_t CrashAfterSaves : {size_t(0), TotalSaves / 2, TotalSaves - 1}) {
    std::string Dir = uniqueDir("crash" + std::to_string(CrashAfterSaves));
    std::string Error;
    {
      std::unique_ptr<CampaignStore> Store =
          CampaignStore::open(Dir, policyFor(5, 1), Error);
      ASSERT_NE(Store, nullptr) << Error;
      AbortAfter Crashing(*Store, CrashAfterSaves);
      EXPECT_THROW(runJournaled(policyFor(5, 1), &Crashing, Dir, false),
                   std::runtime_error);
    }

    // The dead campaign's journal: parseable, no torn tail (every line is
    // flushed whole), and a strict prefix of the uninterrupted journal —
    // the journal is always at or ahead of the store.
    std::string Crashed = readAll(journalPathFor(Dir));
    std::vector<JournalEvent> Events;
    bool TornTail = true;
    ASSERT_TRUE(readJournalFile(journalPathFor(Dir), Events, Error,
                                &TornTail))
        << Error;
    EXPECT_FALSE(TornTail);
    EXPECT_LT(Crashed.size(), Baseline.size());
    EXPECT_EQ(Baseline.rfind(Crashed, 0), 0u)
        << "crash after " << CrashAfterSaves
        << " saves: journal is not a prefix of the uninterrupted run";

    // Resume: recomputed waves re-append byte-identical events, so the
    // final journal equals the uninterrupted one exactly.
    ExecutionPolicy Resumed = policyFor(5, 1).withResume(true);
    std::unique_ptr<CampaignStore> Store =
        CampaignStore::open(Dir, Resumed, Error);
    ASSERT_NE(Store, nullptr) << Error;
    EXPECT_EQ(runJournaled(Resumed, Store.get(), Dir, /*Resume=*/true),
              Baseline)
        << "crash after " << CrashAfterSaves << " saves";
  }
}

//===----------------------------------------------------------------------===//
// Monitoring fold
//===----------------------------------------------------------------------===//

TEST(Journal, TopModelFoldsTheJournal) {
  std::vector<JournalEvent> Events;
  JournalEvent Started;
  Started.Kind = JournalEventKind::CampaignStarted;
  Started.Campaign = "c-42";
  Started.Seed = 5;
  Started.Limit = 120;
  Started.Total = 40;
  Started.WallUs = 1000000;
  Events.push_back(Started);

  auto Push = [&Events](JournalEvent Event) {
    Event.WallUs = 2000000;
    Events.push_back(Event);
  };
  JournalEvent Bug;
  Bug.Kind = JournalEventKind::BugFound;
  Bug.Phase = "eval/a";
  Bug.Target = "Mali";
  Bug.Signature = "sig-1";
  Push(Bug);
  Bug.Signature = "sig-2";
  Push(Bug);
  Bug.Signature = "sig-1"; // duplicate: still one distinct signature
  Push(Bug);
  JournalEvent Wave;
  Wave.Kind = JournalEventKind::WaveCommitted;
  Wave.Phase = "eval/a";
  Wave.Wave = 32;
  Wave.Total = 40;
  Wave.Count = 3;
  Push(Wave);
  JournalEvent Quarantine;
  Quarantine.Kind = JournalEventKind::TargetQuarantined;
  Quarantine.Phase = "eval/a";
  Quarantine.Target = "NVIDIA";
  Push(Quarantine);
  JournalEvent Saved;
  Saved.Kind = JournalEventKind::CheckpointSaved;
  Saved.Phase = "eval/a";
  Push(Saved);

  TopModel Model = buildTopModel(Events);
  EXPECT_EQ(Model.Campaign, "c-42");
  EXPECT_EQ(Model.Seed, 5u);
  EXPECT_EQ(Model.Tests, 40u);
  EXPECT_FALSE(Model.Finished);
  ASSERT_EQ(Model.Phases.size(), 1u);
  EXPECT_EQ(Model.Phases[0].Wave, 32u);
  EXPECT_EQ(Model.Phases[0].Total, 40u);
  EXPECT_EQ(Model.BugsPerTarget.at("Mali").size(), 2u);
  EXPECT_EQ(Model.Quarantined.count("NVIDIA"), 1u);
  EXPECT_EQ(Model.BugEvents, 3u);
  EXPECT_EQ(Model.Checkpoints, 1u);
  EXPECT_EQ(Model.FirstWallUs, 1000000u);
  EXPECT_EQ(Model.LastWallUs, 2000000u);

  std::string Screen = renderTop(Model, nullptr);
  EXPECT_NE(Screen.find("c-42"), std::string::npos);
  EXPECT_NE(Screen.find("Mali"), std::string::npos);
  EXPECT_NE(Screen.find("QUARANTINED"), std::string::npos);

  JournalEvent Finished;
  Finished.Kind = JournalEventKind::CampaignFinished;
  Finished.Campaign = "c-42";
  Finished.Count = 2;
  Events.push_back(Finished);
  Model = buildTopModel(Events);
  EXPECT_TRUE(Model.Finished);
  EXPECT_EQ(Model.FinalBugs, 2u);
  EXPECT_NE(renderTop(Model, nullptr).find("CampaignFinished"),
            std::string::npos);
}

} // namespace
