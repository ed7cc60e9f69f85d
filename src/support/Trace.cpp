//===- support/Trace.cpp - Hierarchical span/event tracing ----------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"

#include <utility>

using namespace spvfuzz;
using namespace spvfuzz::telemetry;

namespace {

/// Per-thread span stack and phase attribution. Spans are strictly
/// block-scoped, so a plain vector mirrors the call structure; the phase
/// is the innermost open TracePhaseScope's label.
thread_local std::vector<uint64_t> ThreadSpanStack;
thread_local std::string ThreadPhase;

} // namespace

uint64_t telemetry::currentSpanId() {
  return ThreadSpanStack.empty() ? 0 : ThreadSpanStack.back();
}

const std::string &telemetry::currentTracePhase() { return ThreadPhase; }

Tracer &Tracer::global() {
  static Tracer Instance;
  return Instance;
}

bool Tracer::open(const std::string &Path, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  SinkError.clear();
  try {
    Sink.open(Path, /*Truncate=*/true);
  } catch (const FileWriteError &E) {
    Error = E.what();
    Enabled.store(false, std::memory_order_relaxed);
    return false;
  }
  Epoch = std::chrono::steady_clock::now();
  Enabled.store(true, std::memory_order_relaxed);
  return true;
}

void Tracer::close() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Enabled.store(false, std::memory_order_relaxed);
  try {
    Sink.close();
  } catch (const FileWriteError &E) {
    if (SinkError.empty())
      SinkError = E.what();
  }
  if (!SinkError.empty())
    throw FileWriteError(std::exchange(SinkError, {}));
}

uint64_t Tracer::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

void Tracer::event(std::string_view Name,
                   std::initializer_list<TraceField> Fields) {
  if (!enabled())
    return;
  writeRecord("event", Name, nowUs(), Fields.begin(), Fields.size(),
              /*DurUs=*/0, /*HasDur=*/false, /*Id=*/0, currentSpanId(),
              currentTracePhase());
}

void Tracer::span(std::string_view Name, uint64_t StartUs, uint64_t Id,
                  uint64_t ParentId, std::string_view Phase,
                  const std::vector<TraceField> &Fields) {
  if (!enabled())
    return;
  uint64_t EndUs = nowUs();
  uint64_t DurUs = EndUs > StartUs ? EndUs - StartUs : 0;
  writeRecord("span", Name, StartUs, Fields.data(), Fields.size(), DurUs,
              /*HasDur=*/true, Id, ParentId, Phase);
}

void Tracer::writeRecord(std::string_view Type, std::string_view Name,
                         uint64_t TsUs, const TraceField *Fields,
                         size_t NumFields, uint64_t DurUs, bool HasDur,
                         uint64_t Id, uint64_t ParentId,
                         std::string_view Phase) {
  std::string Line;
  Line.reserve(160);
  Line += "{\"type\":";
  json::appendString(Line, Type);
  Line += ",\"ts_us\":" + std::to_string(TsUs);
  if (HasDur)
    Line += ",\"dur_us\":" + std::to_string(DurUs);
  if (Id != 0 || ParentId != 0) {
    Line += ",\"id\":" + std::to_string(Id);
    Line += ",\"parent\":" + std::to_string(ParentId);
  }
  if (!Phase.empty()) {
    Line += ",\"phase\":";
    json::appendString(Line, Phase);
  }
  Line += ",\"name\":";
  json::appendString(Line, Name);
  for (size_t I = 0; I < NumFields; ++I) {
    const TraceField &F = Fields[I];
    Line += ',';
    json::appendString(Line, F.Key);
    Line += ':';
    if (F.IsNumber)
      json::appendNumber(Line, F.Number);
    else
      json::appendString(Line, F.Text);
  }
  Line += "}\n";

  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Sink.isOpen() || !SinkError.empty())
    return;
  try {
    Sink.append(Line);
  } catch (const FileWriteError &E) {
    SinkError = E.what();
  }
}

TraceSpan::TraceSpan(std::string_view Name, uint64_t ParentOverride)
    : Name(Name), Active(Tracer::global().enabled()) {
  if (!Active)
    return;
  Tracer &T = Tracer::global();
  StartUs = T.nowUs();
  Parent = ParentOverride == UseStack ? currentSpanId() : ParentOverride;
  Id = T.allocateSpanId();
  Phase = currentTracePhase();
  ThreadSpanStack.push_back(Id);
}

TraceSpan::~TraceSpan() {
  if (!Active)
    return;
  // Pop unconditionally (the stack must stay balanced even if the sink was
  // closed while this span was open).
  if (!ThreadSpanStack.empty() && ThreadSpanStack.back() == Id)
    ThreadSpanStack.pop_back();
  if (Tracer::global().enabled())
    Tracer::global().span(Name, StartUs, Id, Parent, Phase, Fields);
}

TracePhaseScope::TracePhaseScope(std::string_view Phase)
    : Active(Tracer::global().enabled()) {
  if (!Active)
    return;
  Previous = ThreadPhase;
  ThreadPhase.assign(Phase.data(), Phase.size());
}

TracePhaseScope::~TracePhaseScope() {
  if (Active)
    ThreadPhase = std::move(Previous);
}
