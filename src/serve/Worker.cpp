//===- serve/Worker.cpp - Shard lease worker loop -------------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "serve/Worker.h"

#include "campaign/CampaignEngine.h"
#include "store/CampaignStore.h"
#include "store/Serde.h"
#include "support/Telemetry.h"

#include <unistd.h>

using namespace spvfuzz;
using namespace spvfuzz::serve;

namespace {

void sleepMs(uint64_t Ms) { ::usleep(static_cast<useconds_t>(Ms) * 1000); }

} // namespace

ShardWorker::ShardWorker(WorkerOptions OptsIn) : Opts(std::move(OptsIn)) {}

int ShardWorker::run(std::string &ErrorOut) {
  LeaseLedger Ledger(Opts.StoreDir);

  // Wait for the coordinator's config (it lands after the ledger, so a
  // readable config implies a leaseable deployment). A missing store
  // directory is a usage error, not something to wait out.
  WorkerConfigMsg Config;
  const uint64_t WaitStart = monotonicNowMs();
  for (;;) {
    std::string ReadError;
    std::string Bytes;
    if (readFileBytes(Ledger.configPath(), Bytes, ReadError)) {
      if (!decodeWorkerConfig(Bytes, Config, ErrorOut))
        return 1;
      break;
    }
    if (!pathExists(Opts.StoreDir)) {
      ErrorOut = "store directory not found: " + Opts.StoreDir;
      return 2;
    }
    if (monotonicNowMs() - WaitStart >= Opts.ConfigWaitMs) {
      ErrorOut = "timed out waiting for coordinator config in " +
                 Ledger.serveDir();
      return 3;
    }
    sleepMs(Opts.PollMs);
  }
  if (!Ledger.openExisting(ErrorOut))
    return 1;

  // Replicate the campaign policy and fleet and prove it by digest: a
  // worker built from a different binary or config would compute
  // different shards.
  ExecutionPolicy Policy = Config.Policy;
  Policy.withJobs(Opts.Jobs);
  const TargetFleet Fleet = fleetFor(Config);
  const std::string Derived = campaignIdFor(Policy, Fleet);
  if (Derived != Config.CampaignId) {
    ErrorOut = "campaign id mismatch: coordinator has " + Config.CampaignId +
               ", this worker derives " + Derived;
    return 1;
  }

  WorkerHelloMsg Hello;
  Hello.Worker = Opts.WorkerId;
  Hello.Pid = static_cast<uint64_t>(::getpid());
  std::string HelloError;
  atomicWriteFile(Ledger.helloPath(Opts.WorkerId), encodeWorkerHello(Hello),
                  HelloError);

  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Opts.CollectMetrics)
    Metrics.setEnabled(true);
  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, Fleet);
  // Construction counters (corpus/tool building) are the coordinator's to
  // count — exactly once, like a serial run. Shard deltas start here.
  if (Opts.CollectMetrics)
    Metrics.reset();

  for (;;) {
    std::optional<ShardJobMsg> Job;
    if (!Ledger.lease(Opts.WorkerId, Config.LeaseTtlMs, Job, ErrorOut))
      return 1;
    if (!Job) {
      if (pathExists(Ledger.donePath()))
        return 0;
      sleepMs(Opts.PollMs);
      continue;
    }
    if (Opts.AbandonAfterShards && Shards >= Opts.AbandonAfterShards)
      return 0; // test hook: die holding the lease (kill -9 mid-shard)
    if (Job->CampaignId != Config.CampaignId) {
      ErrorOut = "leased job for foreign campaign " + Job->CampaignId;
      return 1;
    }
    const ShardRequest &Request = Job->Request;
    const ToolConfig *Tool = Engine.findTool(Request.Tool);
    if (!Tool) {
      ErrorOut = "leased job names unknown tool " + Request.Tool;
      return 1;
    }

    if (Opts.CollectMetrics)
      Metrics.reset();
    ShardResultMsg Result;
    Result.Evals = Engine.evaluateShard(*Tool, Request);
    Result.JobId = Job->JobId;
    Result.Generation = Job->Generation;
    Result.Worker = Opts.WorkerId;
    Result.CampaignId = Config.CampaignId;
    Result.Phase = Request.Phase;
    Result.WaveStart = Request.WaveStart;
    Result.WaveEnd = Request.WaveEnd;
    Result.MaskDigest = sidelinedDigest(Request.Sidelined);
    if (Opts.CollectMetrics) {
      // The snapshot since the last reset IS this shard's delta. Gauges
      // are point-in-time (cache budgets etc.), not additive — strip
      // them so restore() at the coordinator cannot clobber its own.
      telemetry::MetricsSnapshot Delta = Metrics.snapshot();
      Delta.Gauges.clear();
      Result.MetricsJson = telemetry::metricsToJson(Delta);
    }

    const bool Last = Opts.MaxShards && Shards + 1 >= Opts.MaxShards;
    std::string Encoded = encodeShardResult(Result);
    if (Last && Opts.TruncateLastResult)
      Encoded.resize(Encoded.size() / 2); // test hook: torn publish
    if (!atomicWriteFile(Ledger.resultPath(Job->JobId, Job->Generation),
                         Encoded, ErrorOut))
      return 1;
    if (!(Last && Opts.TruncateLastResult) &&
        !Ledger.complete(Job->JobId, Job->Generation, ErrorOut))
      return 1;
    ++Shards;
    if (Last)
      return 0; // test hook: die at the shard boundary
  }
}
