//===- serve/Worker.cpp - Shard worker loop -------------------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "serve/Worker.h"

#include "campaign/CampaignEngine.h"
#include "store/CampaignStore.h"
#include "support/Telemetry.h"

using namespace spvfuzz;
using namespace spvfuzz::serve;

ShardWorker::ShardWorker(WorkerOptions OptsIn) : Opts(std::move(OptsIn)) {}

int ShardWorker::run(int InFd, int OutFd, std::string &ErrorOut) {
  std::string Buffer, Bytes;
  WorkerConfigMsg Config;
  if (!readFrame(InFd, Buffer, Bytes, ErrorOut)) {
    if (ErrorOut.empty())
      ErrorOut = "stream ended before the worker config";
    return 1;
  }
  if (!decodeWorkerConfig(Bytes, Config, ErrorOut))
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

  telemetry::MetricsRegistry &Metrics = telemetry::MetricsRegistry::global();
  if (Opts.CollectMetrics)
    Metrics.setEnabled(true);
  CampaignEngine Engine(Policy, CorpusSpec{}, ToolsetSpec{}, Fleet);

  for (;;) {
    if (!readFrame(InFd, Buffer, Bytes, ErrorOut))
      return ErrorOut.empty() ? 0 : 1;
    ShardRequest Request;
    if (!decodeShardJob(Bytes, Request, ErrorOut))
      return 1;
    if (Opts.AbandonAfterShards && Shards >= Opts.AbandonAfterShards)
      return 0; // test hook: die holding a job (kill -9 mid-shard)
    const ToolConfig *Tool = Engine.findTool(Request.Tool);
    if (!Tool) {
      ErrorOut = "job names unknown tool " + Request.Tool;
      return 1;
    }

    // Construction counters (corpus/tool building) are the coordinator's
    // to count, exactly once, like a serial run: the delta a result ships
    // starts here.
    if (Opts.CollectMetrics)
      Metrics.reset();
    ShardResultMsg Result;
    Result.Evals = Engine.evaluateShard(*Tool, Request);
    if (Opts.CollectMetrics) {
      // Gauges are point-in-time (cache budgets etc.), not additive —
      // strip them so restore() at the coordinator cannot clobber its own.
      telemetry::MetricsSnapshot Delta = Metrics.snapshot();
      Delta.Gauges.clear();
      Result.MetricsJson = telemetry::metricsToJson(Delta);
    }

    const bool Last = Opts.MaxShards && Shards + 1 >= Opts.MaxShards;
    std::string Frame = frameMessage(encodeShardResult(Result));
    if (Last && Opts.TruncateLastResult)
      Frame.resize(Frame.size() / 2); // test hook: torn send
    if (!sendAll(OutFd, Frame, ErrorOut))
      return 1;
    ++Shards;
    if (Last)
      return 0; // test hook: die at the shard boundary
  }
}
