//===- store/CampaignStore.h - Persistent campaign store --------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent campaign store: durable checkpoints, a cross-campaign
/// bug database and reduced reproducers, under one directory:
///
///   <dir>/MANIFEST.json        human-readable mirror (write-only)
///   <dir>/checkpoint/          manifest.bin + one .ckpt per phase +
///                              metrics.json (telemetry at the last commit)
///   <dir>/bugs/<bucket>/       one dir per dedup bucket (target,
///                              signature, transformation-type set):
///                              meta.json, repro.msb, repro.txt, delta.diff
///   <dir>/corpus/              one .msb per reduced reproducer, the gc'able
///                              bulk storage
///
/// Every file is written write-temp-then-rename with fsync (Serde.h's
/// atomicWriteFile), so a crash leaves the store at some complete earlier
/// state, never torn. The store implements CampaignCheckpointer: attach it
/// to a CampaignEngine and the engine checkpoints at wave boundaries;
/// reopening with Resume and re-running the same campaign replays the
/// checkpoints and continues — byte-identical to an uninterrupted run.
///
/// Buckets are keyed per campaign id (seed + config digest), which makes
/// checkpoint replay idempotent and lets independent campaigns accumulate
/// into one store; merge() folds a second store's campaigns in the same
/// way, the cross-campaign deduplication of ISSUE 5.
///
//===----------------------------------------------------------------------===//

#ifndef STORE_CAMPAIGNSTORE_H
#define STORE_CAMPAIGNSTORE_H

#include "campaign/CampaignEngine.h"
#include "triage/Attribution.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace spvfuzz {

/// One dedup bucket of one campaign: (target, signature, type set) plus
/// how many reductions landed in it and where its representative
/// reproducer lives.
struct BugBucket {
  std::string Target;
  std::string Signature;
  /// Sorted "+"-joined transformation kind names of the minimized
  /// sequence's dedup types (Figure 6's bucket key).
  std::string TypesKey;
  /// Bucket directory name under bugs/.
  std::string Dir;
  uint64_t Count = 0;
};

/// One campaign recorded in the store.
struct CampaignEntry {
  std::string Id;           // "seed<seed>-<digest16>"
  std::string ConfigDigest; // 16 hex chars over the result-shaping policy
  std::vector<BugBucket> Buckets;
};

/// The store-level manifest: every campaign that has written here.
struct StoreManifest {
  std::vector<CampaignEntry> Campaigns;

  CampaignEntry *find(const std::string &Id);
  const CampaignEntry *find(const std::string &Id) const;
};

/// Digest over the result-shaping policy fields (seed, transformation
/// limit, harness knobs, and the reduction order, post-reduce passes and
/// uniform-input count when they are not the defaults — not
/// jobs/deadline/checkpoint cadence, which never change results). 16
/// lowercase hex characters.
std::string campaignConfigDigest(const ExecutionPolicy &Policy);

/// The campaign id a policy maps to: "seed<seed>-<digest16>".
std::string campaignIdFor(const ExecutionPolicy &Policy);

class CampaignStore : public CampaignCheckpointer {
public:
  /// Opens (creating if needed) the store at \p Dir for the campaign
  /// \p Policy describes. Without Policy.Resume the campaign id must not
  /// already be in the manifest (fresh store or cross-campaign
  /// accumulation only); with Resume an existing entry must match the
  /// config digest. Returns nullptr with a diagnostic on layout or
  /// validation failure.
  static std::unique_ptr<CampaignStore> open(const std::string &Dir,
                                             const ExecutionPolicy &Policy,
                                             std::string &ErrorOut);

  /// Opens an existing store read-mostly for the triage CLI (db/report):
  /// no campaign registration, no resume checks. The manifest must parse.
  static std::unique_ptr<CampaignStore> openForTools(const std::string &Dir,
                                                     std::string &ErrorOut);

  const std::string &dir() const { return Root; }
  const std::string &campaignId() const { return CampaignId; }
  const StoreManifest &manifest() const { return Manifest; }

  // --- CampaignCheckpointer ------------------------------------------------

  bool loadEvaluation(const std::string &Phase,
                      EvaluationCheckpoint &Out) override;
  void saveEvaluation(const EvaluationCheckpoint &Checkpoint) override;
  bool loadReduction(const std::string &Phase,
                     ReductionCheckpoint &Out) override;
  void saveReduction(const ReductionCheckpoint &Checkpoint) override;
  void recordReproducer(const ReductionRecord &Record, const Module &Original,
                        const ShaderInput &Input, const Module &Reduced,
                        const TransformationSequence &Minimized) override;

  // --- Triage operations ---------------------------------------------------

  /// Buckets aggregated across campaigns, sorted by (target, signature,
  /// types): the `db list` view. Count sums over campaigns.
  std::vector<BugBucket> aggregatedBuckets() const;

  /// Reads \p Bucket's reproducer artifacts back out of repro.msb (the
  /// inverse of recordReproducer's write). Returns false with a diagnostic
  /// if the bucket has no reproducer or it fails to decode.
  bool loadReproducer(const BugBucket &Bucket, Module &OriginalOut,
                      ShaderInput &InputOut, Module &ReducedOut,
                      TransformationSequence &MinimizedOut,
                      std::string &ErrorOut) const;

  /// Persists \p Attr into \p Bucket: rewrites repro.msb with an ATTR
  /// section (replacing any previous one) and appends/replaces the
  /// "attribution" key of meta.json. Attribution lives in the bucket, not
  /// the manifest — commitManifest rebuilds manifest entries from
  /// checkpoint records and would drop anything stored there.
  bool recordAttribution(const BugBucket &Bucket,
                         const triage::BugAttribution &Attr,
                         std::string &ErrorOut);

  /// Loads the attribution persisted for \p Bucket; false if the bucket
  /// has none (not an error — triage may simply not have run).
  bool loadAttribution(const BugBucket &Bucket,
                       triage::BugAttribution &Out) const;

  /// Folds \p Other's campaigns into this store: campaigns whose id this
  /// store already has are skipped (same campaign, same buckets); new ones
  /// bring their manifest entries, bucket directories and corpus files.
  /// Returns false with a diagnostic on I/O failure.
  bool merge(const CampaignStore &Other, std::string &ErrorOut);

  /// Folds every store found directly under \p Dir into this one (merge(),
  /// applied to each subdirectory in sorted order). Subdirectories that do
  /// not hold a parseable store are counted in \p SkippedOut and left
  /// alone; \p MergedOut counts the stores folded. Returns false with a
  /// diagnostic only on I/O failure while merging an actual store.
  bool mergeFromDirectory(const std::string &Dir, size_t &MergedOut,
                          size_t &SkippedOut, std::string &ErrorOut);

  /// Evicts corpus entries until their total size fits \p BudgetBytes,
  /// using ReplayCache's farthest-first policy: repeatedly keep every
  /// other entry (newest of each pair). Returns the number of files
  /// removed.
  size_t gc(size_t BudgetBytes);

  /// Total bytes currently in corpus/.
  size_t corpusBytes() const;

  /// Sorted corpus file names (relative to corpus/).
  std::vector<std::string> corpusFiles() const;

  /// Restores persisted telemetry (checkpoint/metrics.json) into the
  /// global metrics registry; no-op if none was saved yet.
  void restoreMetrics() const;

  /// Reads the persisted telemetry snapshot; false if none was saved.
  bool loadMetrics(telemetry::MetricsSnapshot &Out, std::string &ErrorOut) const;

private:
  CampaignStore() = default;

  bool loadCheckpointFile(const std::string &Phase, const char *SectionTag,
                          std::string &PayloadOut, uint32_t &VersionOut);
  void saveCheckpointFile(const std::string &Phase, const char *SectionTag,
                          std::string Payload);
  /// Rebuilds this campaign's manifest entry from every reduction record
  /// in its checkpoints (idempotent under replay), then persists the
  /// manifest and the telemetry snapshot.
  void commitManifest();
  /// Persists the manifest exactly as merge() left it (no rebuild from
  /// local checkpoints, which would drop the foreign campaigns).
  bool commitMergedManifest(std::string &ErrorOut);
  void writeManifestMirror() const;

  std::string Root;
  std::string CampaignId;
  std::string ConfigDigest;
  StoreManifest Manifest;
  /// Reduction records per phase key, accumulated from checkpoint saves
  /// (and reloaded from disk at open), the source of bucket counts.
  std::map<std::string, std::vector<ReductionRecord>> PhaseRecords;
};

} // namespace spvfuzz

#endif // STORE_CAMPAIGNSTORE_H
