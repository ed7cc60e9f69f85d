//===- store/CampaignStore.cpp - Persistent campaign store -----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "store/CampaignStore.h"

#include "obs/Journal.h"
#include "store/Serde.h"
#include "support/FileIO.h"
#include "support/Json.h"
#include "support/ModuleHash.h"
#include "triage/Triage.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

using namespace spvfuzz;

//===----------------------------------------------------------------------===//
// Small filesystem and naming helpers
//===----------------------------------------------------------------------===//

namespace {

uint64_t hashString(const std::string &S) {
  StructuralHasher H;
  H.word(S.size());
  for (char C : S)
    H.word(static_cast<uint8_t>(C));
  return H.digest();
}

std::string hexDigits(uint64_t Value, size_t Digits) {
  static const char *Hex = "0123456789abcdef";
  std::string Out(Digits, '0');
  for (size_t I = Digits; I-- > 0; Value >>= 4)
    Out[I] = Hex[Value & 0xF];
  return Out;
}

/// Filesystem-safe rendering of a target name.
std::string sanitizeName(const std::string &Name) {
  std::string Out;
  for (char C : Name)
    Out += (isalnum(static_cast<unsigned char>(C)) || C == '-' || C == '_')
               ? C
               : '-';
  return Out.empty() ? std::string("unnamed") : Out;
}

std::string bucketDirName(const std::string &Target,
                          const std::string &Signature,
                          const std::string &TypesKey) {
  return sanitizeName(Target) + "_" + hexDigits(hashString(Signature), 8) +
         "_" + hexDigits(hashString(TypesKey), 8);
}

/// False when \p From cannot be read; a failed write throws.
bool copyFile(const std::string &From, const std::string &To,
              std::string &ErrorOut) {
  std::string Bytes;
  if (!readFileBytes(From, Bytes, ErrorOut))
    return false;
  atomicWriteFile(To, Bytes);
  return true;
}

//===----------------------------------------------------------------------===//
// Checkpoint payload codecs
//===----------------------------------------------------------------------===//

void writeBreakers(ByteWriter &W,
                   const std::map<std::string, Harness::BreakerState> &B) {
  W.u32(static_cast<uint32_t>(B.size()));
  for (const auto &[Name, State] : B) {
    W.str(Name);
    W.u32(State.ConsecutiveToolErrors);
    W.u8(State.Open ? 1 : 0);
  }
}

bool readBreakers(ByteReader &R,
                  std::map<std::string, Harness::BreakerState> &Out) {
  Out.clear();
  uint32_t Count = 0;
  if (!R.u32(Count) || !R.checkCount(Count, 9))
    return false;
  for (uint32_t I = 0; I < Count; ++I) {
    std::string Name;
    Harness::BreakerState State;
    uint8_t Open = 0;
    if (!R.str(Name) || !R.u32(State.ConsecutiveToolErrors) || !R.u8(Open))
      return false;
    State.Open = Open != 0;
    Out[std::move(Name)] = State;
  }
  return true;
}

void writeEvaluationPayload(ByteWriter &W, const EvaluationCheckpoint &C) {
  W.u64(C.NextWave);
  W.u8(C.Complete ? 1 : 0);
  W.u32(static_cast<uint32_t>(C.Evals.size()));
  for (const TestEvaluation &Eval : C.Evals)
    writeTestEvaluationBinary(W, Eval);
  writeBreakers(W, C.Breakers);
}

bool readEvaluationPayload(ByteReader &R, EvaluationCheckpoint &C) {
  uint64_t NextWave = 0;
  uint8_t Complete = 0;
  uint32_t EvalCount = 0;
  if (!R.u64(NextWave) || !R.u8(Complete) || !R.u32(EvalCount) ||
      !R.checkCount(EvalCount, 24))
    return false;
  C.NextWave = static_cast<size_t>(NextWave);
  C.Complete = Complete != 0;
  C.Evals.clear();
  C.Evals.reserve(EvalCount);
  for (uint32_t I = 0; I < EvalCount; ++I) {
    TestEvaluation Eval;
    if (!readTestEvaluationBinary(R, Eval))
      return false;
    C.Evals.push_back(std::move(Eval));
  }
  return readBreakers(R, C.Breakers);
}

void writeRecord(ByteWriter &W, const ReductionRecord &Record) {
  W.str(Record.Tool);
  W.str(Record.TargetName);
  W.str(Record.Signature);
  W.u64(Record.TestIndex);
  W.u64(Record.OriginalCount);
  W.u64(Record.UnreducedCount);
  W.u64(Record.ReducedCount);
  W.u64(Record.MinimizedLength);
  W.u64(Record.Checks);
  // A retired slot (discarded speculative checks), kept so the format and
  // existing stores stay as they are; readRecord skips it.
  W.u64(0);
  W.u32(static_cast<uint32_t>(Record.Types.size()));
  for (TransformationKind Kind : Record.Types)
    W.u16(static_cast<uint16_t>(Kind));
  W.u32(static_cast<uint32_t>(Record.PostStats.size()));
  for (const PostReducePassStats &Stat : Record.PostStats) {
    W.str(Stat.Pass);
    W.u64(Stat.Attempted);
    W.u64(Stat.Accepted);
    W.u64(Stat.Checks);
  }
}

bool readRecord(ByteReader &R, ReductionRecord &Record, uint32_t Version) {
  uint64_t TestIndex = 0, Original = 0, Unreduced = 0, Reduced = 0,
           Minimized = 0, Checks = 0, Retired = 0;
  uint32_t TypeCount = 0;
  if (!R.str(Record.Tool) || !R.str(Record.TargetName) ||
      !R.str(Record.Signature) || !R.u64(TestIndex) || !R.u64(Original) ||
      !R.u64(Unreduced) || !R.u64(Reduced) || !R.u64(Minimized) ||
      !R.u64(Checks) || !R.u64(Retired) || !R.u32(TypeCount) ||
      !R.checkCount(TypeCount, 2))
    return false;
  Record.TestIndex = static_cast<size_t>(TestIndex);
  Record.OriginalCount = static_cast<size_t>(Original);
  Record.UnreducedCount = static_cast<size_t>(Unreduced);
  Record.ReducedCount = static_cast<size_t>(Reduced);
  Record.MinimizedLength = static_cast<size_t>(Minimized);
  Record.Checks = static_cast<size_t>(Checks);
  Record.Types.clear();
  for (uint32_t I = 0; I < TypeCount; ++I) {
    uint16_t Kind = 0;
    if (!R.u16(Kind))
      return false;
    if (Kind >= NumTransformationKinds)
      return R.failAt("unknown transformation kind " + std::to_string(Kind));
    Record.Types.insert(static_cast<TransformationKind>(Kind));
  }
  Record.PostStats.clear();
  if (Version >= 2) {
    uint32_t PostCount = 0;
    if (!R.u32(PostCount) || !R.checkCount(PostCount, 28))
      return false;
    Record.PostStats.reserve(PostCount);
    for (uint32_t I = 0; I < PostCount; ++I) {
      PostReducePassStats Stat;
      uint64_t Attempted = 0, Accepted = 0, Checks = 0;
      if (!R.str(Stat.Pass) || !R.u64(Attempted) || !R.u64(Accepted) ||
          !R.u64(Checks))
        return false;
      Stat.Attempted = static_cast<size_t>(Attempted);
      Stat.Accepted = static_cast<size_t>(Accepted);
      Stat.Checks = static_cast<size_t>(Checks);
      Record.PostStats.push_back(std::move(Stat));
    }
  }
  return true;
}

void writeReductionPayload(ByteWriter &W, const ReductionCheckpoint &C) {
  W.u64(C.NextWave);
  W.u8(C.Complete ? 1 : 0);
  W.u64(C.ReductionsDone);
  W.u32(static_cast<uint32_t>(C.SignatureCounts.size()));
  for (const auto &[Key, Count] : C.SignatureCounts) {
    W.str(Key.first);
    W.str(Key.second);
    W.u64(Count);
  }
  W.u32(static_cast<uint32_t>(C.Records.size()));
  for (const ReductionRecord &Record : C.Records)
    writeRecord(W, Record);
  writeBreakers(W, C.Breakers);
}

bool readReductionPayload(ByteReader &R, ReductionCheckpoint &C,
                          uint32_t Version) {
  uint64_t NextWave = 0, Done = 0;
  uint8_t Complete = 0;
  uint32_t SigCount = 0;
  if (!R.u64(NextWave) || !R.u8(Complete) || !R.u64(Done) ||
      !R.u32(SigCount) || !R.checkCount(SigCount, 16))
    return false;
  C.NextWave = static_cast<size_t>(NextWave);
  C.Complete = Complete != 0;
  C.ReductionsDone = static_cast<size_t>(Done);
  C.SignatureCounts.clear();
  for (uint32_t I = 0; I < SigCount; ++I) {
    std::string Target, Signature;
    uint64_t Count = 0;
    if (!R.str(Target) || !R.str(Signature) || !R.u64(Count))
      return false;
    C.SignatureCounts[{std::move(Target), std::move(Signature)}] =
        static_cast<size_t>(Count);
  }
  uint32_t RecordCount = 0;
  if (!R.u32(RecordCount) || !R.checkCount(RecordCount, 60))
    return false;
  C.Records.clear();
  C.Records.reserve(RecordCount);
  for (uint32_t I = 0; I < RecordCount; ++I) {
    ReductionRecord Record;
    if (!readRecord(R, Record, Version))
      return false;
    C.Records.push_back(std::move(Record));
  }
  return readBreakers(R, C.Breakers);
}

//===----------------------------------------------------------------------===//
// The index the checkpoints carry
//===----------------------------------------------------------------------===//

/// Reduction records by phase.
using PhaseRecordMap = std::map<std::string, std::vector<ReductionRecord>>;

/// Every campaign the checkpoints under \p Dir record, with its reduction
/// records: each decodable .ckpt registers its CAMP, and a REDU payload
/// adds its phase's records.
std::map<std::string, PhaseRecordMap> readCheckpoints(const std::string &Dir) {
  std::map<std::string, PhaseRecordMap> Campaigns;
  for (const std::string &Name : listDir(Dir + "/checkpoint", ".ckpt")) {
    std::string Bytes, Error;
    StoreFile File;
    if (!readFileBytes(Dir + "/checkpoint/" + Name, Bytes, Error) ||
        !StoreFile::decode(Bytes, File, Error))
      continue;
    const std::string *Campaign = File.find("CAMP");
    if (!Campaign)
      continue;
    PhaseRecordMap &Phases = Campaigns[*Campaign];
    const std::string *Phase = File.find("PHSE");
    const std::string *Payload = File.find("REDU");
    if (!Phase || !Payload)
      continue;
    ByteReader R(*Payload);
    ReductionCheckpoint C;
    if (readReductionPayload(R, C, File.Version))
      Phases[*Phase] = std::move(C.Records);
  }
  return Campaigns;
}

/// One campaign's buckets, counted over its reduction records in every
/// phase: idempotent under checkpoint replay, so a resumed run never
/// double-counts.
std::vector<BugBucket> bucketsOf(const PhaseRecordMap &Phases) {
  std::map<std::tuple<std::string, std::string, std::string>, uint64_t>
      Counts;
  for (const auto &[Phase, Records] : Phases) {
    (void)Phase;
    for (const ReductionRecord &Record : Records)
      ++Counts[{Record.TargetName, Record.Signature,
                triage::dedupTypesKey(Record.Types)}];
  }
  std::vector<BugBucket> Buckets;
  for (const auto &[Key, Count] : Counts) {
    const auto &[Target, Signature, TypesKey] = Key;
    Buckets.push_back({Target, Signature, TypesKey,
                       bucketDirName(Target, Signature, TypesKey), Count});
  }
  return Buckets;
}

/// \p Manifest's entry for campaign \p Id, inserted in id order when
/// missing.
CampaignEntry &entryFor(StoreManifest &Manifest, const std::string &Id) {
  auto It = std::lower_bound(
      Manifest.Campaigns.begin(), Manifest.Campaigns.end(), Id,
      [](const CampaignEntry &Entry, const std::string &Key) {
        return Entry.Id < Key;
      });
  if (It == Manifest.Campaigns.end() || It->Id != Id)
    It = Manifest.Campaigns.insert(It, CampaignEntry{Id, {}});
  return *It;
}

} // namespace

//===----------------------------------------------------------------------===//
// StoreManifest / campaign identity
//===----------------------------------------------------------------------===//

CampaignEntry *StoreManifest::find(const std::string &Id) {
  for (CampaignEntry &Campaign : Campaigns)
    if (Campaign.Id == Id)
      return &Campaign;
  return nullptr;
}

std::string spvfuzz::campaignConfigDigest(const ExecutionPolicy &Policy,
                                          const TargetFleet &Fleet) {
  StructuralHasher H;
  H.word(Policy.Seed);
  H.word(Policy.TransformationLimit);
  H.word(Policy.TargetDeadlineSteps);
  // The harness's voting pool and quarantine threshold: constants, still
  // hashed so that the ids of stores written when they were policy fields
  // stay valid.
  H.word(HarnessVotingAttempts);
  H.word(HarnessQuarantineThreshold);
  // Reduction-pipeline knobs change reduction results, so they are part
  // of the campaign identity — but only when non-default, so digests of
  // paper-order campaigns are stable across versions.
  if (Policy.ReduceOrder != CandidateOrder::Paper)
    H.word(static_cast<uint64_t>(Policy.ReduceOrder) + 1);
  // More uniform inputs per test can expose more miscompilations, so the
  // matrix size shapes scan results too (0 and 1 both run one input).
  if (Policy.UniformInputs > 1) {
    H.word(0x756e69u); // "uni"
    H.word(Policy.UniformInputs);
  }
  if (Policy.PostReduce)
    H.word(0x706f7374u); // "post"
  // Another fleet finds other bugs (and scan checkpoints name its
  // targets), so its target names join the identity; the standard fleet
  // (an empty one means it too) adds nothing.
  if (!Fleet.empty() && Fleet.names() != TargetFleet::standard().names()) {
    H.word(0x666c656574u); // "fleet"
    for (const std::string &Name : Fleet.names())
      H.word(hashString(Name));
  }
  return hexDigits(H.digest(), 16);
}

std::string spvfuzz::campaignIdFor(const ExecutionPolicy &Policy,
                                   const TargetFleet &Fleet) {
  return "seed" + std::to_string(Policy.Seed) + "-" +
         campaignConfigDigest(Policy, Fleet);
}

//===----------------------------------------------------------------------===//
// Open
//===----------------------------------------------------------------------===//

std::unique_ptr<CampaignStore>
CampaignStore::open(const std::string &Dir, const ExecutionPolicy &Policy,
                    std::string &ErrorOut) {
  return open(Dir, Policy, TargetFleet{}, ErrorOut);
}

std::unique_ptr<CampaignStore>
CampaignStore::open(const std::string &Dir, const ExecutionPolicy &Policy,
                    const TargetFleet &Fleet, std::string &ErrorOut) {
  std::unique_ptr<CampaignStore> Store(new CampaignStore());
  Store->Root = Dir;
  Store->CampaignId = campaignIdFor(Policy, Fleet);

  for (const char *Sub : {"", "/checkpoint", "/bugs", "/journal"})
    ensureDir(Dir + Sub);

  Store->loadIndex();
  if (Store->Found && !Policy.Resume) {
    ErrorOut = "store already records campaign " + Store->CampaignId +
               "; pass --resume to continue it (or use a different seed to "
               "accumulate a new campaign)";
    return nullptr;
  }

  // journal/events.jsonl and checkpoint/metrics.json belong to the
  // campaign the store ran last. Opening it for another campaign parks
  // that campaign's pair as parked/<id>-events.jsonl and
  // parked/<id>-metrics.json and brings this campaign's parked pair, if
  // any, back. A fresh store only looks up three paths here.
  const std::string Journal = obs::journalPathFor(Dir);
  const std::string Metrics = Dir + "/checkpoint/metrics.json";
  const std::string Owner = obs::journalCampaign(Dir);
  if (Owner != Store->CampaignId) {
    const std::string Parked = Dir + "/parked/";
    if (!Owner.empty()) {
      ensureDir(Parked);
      moveFile(Journal, Parked + Owner + "-events.jsonl");
      if (pathExists(Metrics))
        moveFile(Metrics, Parked + Owner + "-metrics.json");
    }
    const std::string Mine = Parked + Store->CampaignId;
    if (pathExists(Mine + "-events.jsonl"))
      moveFile(Mine + "-events.jsonl", Journal);
    if (pathExists(Mine + "-metrics.json"))
      moveFile(Mine + "-metrics.json", Metrics);
  }
  return Store;
}

std::unique_ptr<CampaignStore>
CampaignStore::openForTools(const std::string &Dir, std::string &ErrorOut) {
  std::unique_ptr<CampaignStore> Store(new CampaignStore());
  Store->Root = Dir;
  Store->loadIndex();
  if (Store->Manifest.Campaigns.empty()) {
    ErrorOut = Dir + " is not a campaign store (no checkpoint/*.ckpt)";
    return nullptr;
  }
  return Store;
}

void CampaignStore::loadIndex() {
  for (auto &[Id, Phases] : readCheckpoints(Root)) {
    entryFor(Manifest, Id).Buckets = bucketsOf(Phases);
    if (Id == CampaignId) {
      Found = true;
      PhaseRecords = std::move(Phases);
    }
  }
}

//===----------------------------------------------------------------------===//
// Checkpoints
//===----------------------------------------------------------------------===//

bool CampaignStore::loadCheckpointFile(const std::string &Phase,
                                       const char *SectionTag,
                                       std::string &PayloadOut,
                                       uint32_t &VersionOut) {
  const std::string Path =
      Root + "/checkpoint/" +
      hexDigits(hashString(CampaignId + "\n" + Phase), 16) + ".ckpt";
  std::string Bytes, Error;
  if (!pathExists(Path) || !readFileBytes(Path, Bytes, Error))
    return false;
  StoreFile File;
  if (!StoreFile::decode(Bytes, File, Error)) {
    fprintf(stderr, "store: ignoring corrupt checkpoint %s: %s\n",
            Path.c_str(), Error.c_str());
    return false;
  }
  const std::string *Campaign = File.find("CAMP");
  const std::string *Stored = File.find("PHSE");
  const std::string *Payload = File.find(SectionTag);
  if (!Campaign || !Stored || !Payload || *Campaign != CampaignId ||
      *Stored != Phase)
    return false;
  PayloadOut = *Payload;
  VersionOut = File.Version;
  return true;
}

void CampaignStore::commitCheckpoint(const std::string &Phase,
                                     const char *SectionTag,
                                     std::string Payload) {
  // Telemetry at this commit point, for resume merging and report --store.
  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Metrics.enabled())
    atomicWriteFile(Root + "/checkpoint/metrics.json",
                    telemetry::metricsToJson(Metrics.snapshot()));
  // The phase checkpoint goes last: a failed write before it leaves the
  // previous checkpoint in place, so resume redoes this wave.
  StoreFile File;
  File.add("CAMP", CampaignId);
  File.add("PHSE", Phase);
  File.add(SectionTag, std::move(Payload));
  atomicWriteFile(Root + "/checkpoint/" +
                      hexDigits(hashString(CampaignId + "\n" + Phase), 16) +
                      ".ckpt",
                  File.encode());
  entryFor(Manifest, CampaignId).Buckets = bucketsOf(PhaseRecords);
}

bool CampaignStore::loadEvaluation(const std::string &Phase,
                                   EvaluationCheckpoint &Out) {
  std::string Payload;
  uint32_t Version = 0;
  if (!loadCheckpointFile(Phase, "EVAL", Payload, Version))
    return false;
  ByteReader R(Payload);
  EvaluationCheckpoint C;
  if (!readEvaluationPayload(R, C)) {
    fprintf(stderr, "store: ignoring corrupt evaluation checkpoint (%s)\n",
            R.error().c_str());
    return false;
  }
  C.Phase = Phase;
  Out = std::move(C);
  return true;
}

void CampaignStore::saveEvaluation(const EvaluationCheckpoint &Checkpoint) {
  ByteWriter W;
  writeEvaluationPayload(W, Checkpoint);
  commitCheckpoint(Checkpoint.Phase, "EVAL", W.take());
}

bool CampaignStore::loadReduction(const std::string &Phase,
                                  ReductionCheckpoint &Out) {
  std::string Payload;
  uint32_t Version = 0;
  if (!loadCheckpointFile(Phase, "REDU", Payload, Version))
    return false;
  ByteReader R(Payload);
  ReductionCheckpoint C;
  if (!readReductionPayload(R, C, Version)) {
    fprintf(stderr, "store: ignoring corrupt reduction checkpoint (%s)\n",
            R.error().c_str());
    return false;
  }
  C.Phase = Phase;
  Out = std::move(C);
  return true;
}

void CampaignStore::saveReduction(const ReductionCheckpoint &Checkpoint) {
  ByteWriter W;
  writeReductionPayload(W, Checkpoint);
  PhaseRecords[Checkpoint.Phase] = Checkpoint.Records;
  commitCheckpoint(Checkpoint.Phase, "REDU", W.take());
}

//===----------------------------------------------------------------------===//
// Reproducers
//===----------------------------------------------------------------------===//

void CampaignStore::recordReproducer(const ReductionRecord &Record,
                                     const Module &Original,
                                     const ShaderInput &Input,
                                     const Module &Reduced,
                                     const TransformationSequence &Minimized) {
  // The canonical rendering shared with the ground-truth scorer, so the
  // types dedup axis means the same thing in buckets and in scores.
  const std::string TypesKey = triage::dedupTypesKey(Record.Types);
  const std::string BucketDir =
      bucketDirName(Record.TargetName, Record.Signature, TypesKey);
  const std::string BucketPath = Root + "/bugs/" + BucketDir;

  // The bucket keeps its first reproducer as the representative; later
  // hits write nothing (the checkpoints' records count them). repro.msb
  // goes last, so a bucket without it is rewritten whole on resume.
  if (pathExists(BucketPath + "/repro.msb"))
    return;
  ensureDir(BucketPath);
  ByteWriter OrigW, InputW, ReducedW, SeqW;
  writeModuleBinary(OrigW, Original);
  writeShaderInputBinary(InputW, Input);
  writeModuleBinary(ReducedW, Reduced);
  writeSequenceBinary(SeqW, Minimized);
  StoreFile Repro;
  Repro.add("ORIG", OrigW.take());
  Repro.add("INPT", InputW.take());
  Repro.add("REDU", ReducedW.take());
  Repro.add("SEQN", SeqW.take());

  std::string Meta = "{\n  \"tool\": ";
  json::appendString(Meta, Record.Tool);
  Meta += ",\n  \"target\": ";
  json::appendString(Meta, Record.TargetName);
  Meta += ",\n  \"signature\": ";
  json::appendString(Meta, Record.Signature);
  Meta += ",\n  \"types\": ";
  json::appendString(Meta, TypesKey);
  Meta += ",\n  \"testIndex\": " + std::to_string(Record.TestIndex);
  Meta += ",\n  \"originalCount\": " + std::to_string(Record.OriginalCount);
  Meta += ",\n  \"unreducedCount\": " + std::to_string(Record.UnreducedCount);
  Meta += ",\n  \"reducedCount\": " + std::to_string(Record.ReducedCount);
  Meta += ",\n  \"minimizedLength\": " + std::to_string(Record.MinimizedLength);
  Meta += "\n}\n";

  atomicWriteFile(BucketPath + "/meta.json", Meta);
  atomicWriteFile(BucketPath + "/repro.msb", Repro.encode());
}

bool CampaignStore::loadReproducer(const BugBucket &Bucket, Module &OriginalOut,
                                   ShaderInput &InputOut, Module &ReducedOut,
                                   TransformationSequence &MinimizedOut,
                                   std::string &ErrorOut) const {
  const std::string Path = Root + "/bugs/" + Bucket.Dir + "/repro.msb";
  std::string Bytes;
  StoreFile Repro;
  if (!readFileBytes(Path, Bytes, ErrorOut) ||
      !StoreFile::decode(Bytes, Repro, ErrorOut))
    return false;
  const std::string *Orig = Repro.find("ORIG");
  const std::string *Input = Repro.find("INPT");
  const std::string *Reduced = Repro.find("REDU");
  const std::string *Sequence = Repro.find("SEQN");
  if (!Orig || !Input || !Reduced || !Sequence) {
    ErrorOut = Path + ": missing reproducer section";
    return false;
  }
  ByteReader OrigR(*Orig), InputR(*Input), ReducedR(*Reduced),
      SequenceR(*Sequence);
  if (!readModuleBinary(OrigR, OriginalOut) ||
      !readShaderInputBinary(InputR, InputOut) ||
      !readModuleBinary(ReducedR, ReducedOut) ||
      !readSequenceBinary(SequenceR, MinimizedOut)) {
    ErrorOut = Path + ": reproducer payload failed to decode";
    return false;
  }
  return true;
}

bool CampaignStore::recordAttribution(const BugBucket &Bucket,
                                      const triage::BugAttribution &Attr,
                                      std::string &ErrorOut) {
  const std::string BucketPath = Root + "/bugs/" + Bucket.Dir;
  std::string Bytes;
  StoreFile Repro;
  if (!readFileBytes(BucketPath + "/repro.msb", Bytes, ErrorOut) ||
      !StoreFile::decode(Bytes, Repro, ErrorOut))
    return false;

  // Rebuild the container at the current version with every non-ATTR
  // section preserved and the new ATTR appended (replacing any previous
  // attribution: triage re-runs are idempotent). A re-triage that
  // reaches the same verdict rebuilds the stored bytes and writes nothing.
  StoreFile Updated;
  for (const auto &[Tag, Payload] : Repro.Sections)
    if (Tag != "ATTR")
      Updated.add(Tag, Payload);
  ByteWriter AttrW;
  triage::writeAttributionBinary(AttrW, Attr);
  Updated.add("ATTR", AttrW.take());
  std::string Encoded = Updated.encode();
  if (Encoded != Bytes)
    atomicWriteFile(BucketPath + "/repro.msb", Encoded);
  return true;
}

bool CampaignStore::loadAttribution(const BugBucket &Bucket,
                                    triage::BugAttribution &Out) const {
  std::string Bytes, Error;
  StoreFile Repro;
  if (!readFileBytes(Root + "/bugs/" + Bucket.Dir + "/repro.msb", Bytes,
                     Error) ||
      !StoreFile::decode(Bytes, Repro, Error))
    return false;
  const std::string *Attr = Repro.find("ATTR");
  if (!Attr)
    return false;
  ByteReader R(*Attr);
  return triage::readAttributionBinary(R, Out);
}

//===----------------------------------------------------------------------===//
// Triage operations
//===----------------------------------------------------------------------===//

std::vector<BugBucket> CampaignStore::aggregatedBuckets() const {
  std::map<std::tuple<std::string, std::string, std::string>, BugBucket>
      Merged;
  for (const CampaignEntry &Campaign : Manifest.Campaigns) {
    for (const BugBucket &Bucket : Campaign.Buckets) {
      BugBucket &Slot =
          Merged[{Bucket.Target, Bucket.Signature, Bucket.TypesKey}];
      if (Slot.Count == 0) {
        Slot = Bucket;
        continue;
      }
      Slot.Count += Bucket.Count;
    }
  }
  std::vector<BugBucket> Out;
  Out.reserve(Merged.size());
  for (auto &[Key, Bucket] : Merged) {
    (void)Key;
    Out.push_back(std::move(Bucket));
  }
  return Out;
}

bool CampaignStore::merge(const CampaignStore &Other, std::string &ErrorOut) {
  StoreManifest Added;
  for (const CampaignEntry &Campaign : Other.Manifest.Campaigns) {
    if (Manifest.find(Campaign.Id))
      continue; // same campaign, same buckets — nothing new
    for (const BugBucket &Bucket : Campaign.Buckets) {
      const std::string From = Other.Root + "/bugs/" + Bucket.Dir;
      const std::string To = Root + "/bugs/" + Bucket.Dir;
      if (pathExists(To + "/repro.msb"))
        continue; // bucket already has a representative here
      ensureDir(To);
      for (const std::string &Name : listDir(From, ""))
        if (!copyFile(From + "/" + Name, To + "/" + Name, ErrorOut))
          return false;
    }
    Added.Campaigns.push_back(Campaign);
  }
  // The checkpoints are the index, so they go last: a merge cut short
  // before them leaves the campaign out, and the next merge copies it.
  for (const std::string &Name :
       listDir(Other.Root + "/checkpoint", ".ckpt")) {
    std::string Bytes, Error;
    StoreFile File;
    if (!readFileBytes(Other.Root + "/checkpoint/" + Name, Bytes, ErrorOut))
      return false;
    const std::string *Campaign =
        StoreFile::decode(Bytes, File, Error) ? File.find("CAMP") : nullptr;
    if (Campaign && Added.find(*Campaign))
      atomicWriteFile(Root + "/checkpoint/" + Name, Bytes);
  }
  for (CampaignEntry &Campaign : Added.Campaigns)
    entryFor(Manifest, Campaign.Id) = std::move(Campaign);
  return true;
}

bool CampaignStore::mergeFromDirectory(const std::string &Dir,
                                       size_t &MergedOut, size_t &SkippedOut,
                                       std::string &ErrorOut) {
  MergedOut = 0;
  SkippedOut = 0;
  std::string ListError;
  std::vector<std::string> Names = listDir(Dir, "", &ListError);
  if (!ListError.empty()) {
    ErrorOut = ListError;
    return false;
  }
  for (const std::string &Name : Names) {
    const std::string Sub = Dir + "/" + Name;
    if (!pathExists(Sub + "/"))
      continue; // not a directory
    std::string OpenError;
    std::unique_ptr<CampaignStore> Source =
        Sub == Root ? nullptr : openForTools(Sub, OpenError);
    if (!Source) {
      ++SkippedOut;
      continue;
    }
    if (!merge(*Source, ErrorOut))
      return false;
    ++MergedOut;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

bool CampaignStore::loadMetrics(const std::string &Dir,
                                telemetry::MetricsSnapshot &Out,
                                std::string &ErrorOut) {
  const std::string Path = Dir + "/checkpoint/metrics.json";
  std::string Bytes;
  if (!pathExists(Path)) {
    ErrorOut = "no metrics saved in " + Dir;
    return false;
  }
  return readFileBytes(Path, Bytes, ErrorOut) &&
         telemetry::metricsFromJson(Bytes, Out, ErrorOut);
}

void CampaignStore::restoreMetrics() const {
  if (!Found)
    return;
  telemetry::MetricsSnapshot Snapshot;
  std::string Error;
  if (loadMetrics(Root, Snapshot, Error))
    telemetry::MetricsRegistry::global().restore(Snapshot);
}
