//===- support/Trace.h - Hierarchical span/event tracing --------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structured tracer that writes one JSON object per line (JSONL) to a
/// configurable sink (`--trace-out`). Two record shapes:
///
///   {"type":"event","ts_us":<t>,"id":0,"parent":<p>,"phase":"..",
///    "name":"...", <fields>...}
///   {"type":"span","ts_us":<start>,"dur_us":<d>,"id":<i>,"parent":<p>,
///    "phase":"..","name":"...", <fields>...}
///
/// Tracing v2 is hierarchical: every span carries a process-unique id and
/// the id of the span that was open on the same logical flow when it
/// started (0 = root). Parents come from a per-thread span stack, so
/// nesting is free for same-thread spans; cross-thread children (worker
/// jobs forked from a coordinator wave) pass the parent id explicitly.
/// Records also carry a phase attribution ("fuzz", "scan", "reduce",
/// "dedup") from the innermost TracePhaseScope on the recording thread,
/// which is what `minispv report --trace` groups time by.
///
/// Timestamps are microseconds on the steady clock, relative to the moment
/// the sink was opened. Spans are emitted on destruction of a TraceSpan
/// (RAII), so a span line appears *after* any events or child spans
/// recorded inside it — readers must collect ids before resolving parents.
///
/// Like the metrics registry, the tracer is disabled until a sink is
/// opened and instrumentation gates on a relaxed atomic load. The sink is
/// a buffered support/FileIO append handle. Spans end in destructors,
/// which must not throw, so the tracer keeps its first failed write and
/// close() reports it.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TRACE_H
#define SUPPORT_TRACE_H

#include "support/FileIO.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace spvfuzz {
namespace telemetry {

/// One key/value attribute on a trace record. Values are either text or
/// numbers (numbers are emitted unquoted).
struct TraceField {
  TraceField(std::string_view Key, std::string_view Text)
      : Key(Key), Text(Text), IsNumber(false) {}
  TraceField(std::string_view Key, const char *Text)
      : Key(Key), Text(Text), IsNumber(false) {}
  template <typename NumberT,
            typename = std::enable_if_t<std::is_arithmetic_v<NumberT>>>
  TraceField(std::string_view Key, NumberT Number)
      : Key(Key), Number(static_cast<double>(Number)), IsNumber(true) {}

  std::string Key;
  std::string Text;
  double Number = 0.0;
  bool IsNumber;
};

/// The innermost span id on the calling thread's span stack (0 if none).
/// New spans and events adopt it as their parent.
uint64_t currentSpanId();

/// The calling thread's phase attribution (empty if none).
const std::string &currentTracePhase();

/// The process-wide tracer.
class Tracer {
public:
  static Tracer &global();

  /// Opens (truncating) \p Path as the JSONL sink and enables tracing.
  /// Returns false and sets \p Error on failure.
  bool open(const std::string &Path, std::string &Error);

  /// Flushes and closes the sink; tracing is disabled again. Throws
  /// FileWriteError when any write to the sink failed.
  void close();

  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Writes an event record. Parent and phase come from the calling
  /// thread's span stack and phase scope.
  void event(std::string_view Name,
             std::initializer_list<TraceField> Fields = {});

  /// Writes a span record covering [\p StartUs, now] with identity \p Id,
  /// parent \p ParentId (0 = root) and phase attribution \p Phase.
  void span(std::string_view Name, uint64_t StartUs, uint64_t Id,
            uint64_t ParentId, std::string_view Phase,
            const std::vector<TraceField> &Fields);

  /// Allocates a process-unique span id (never 0).
  uint64_t allocateSpanId() {
    return NextSpanId.fetch_add(1, std::memory_order_relaxed);
  }

  /// Microseconds since the sink was opened.
  uint64_t nowUs() const;

private:
  void writeRecord(std::string_view Type, std::string_view Name,
                   uint64_t TsUs, const TraceField *Fields, size_t NumFields,
                   uint64_t DurUs, bool HasDur, uint64_t Id,
                   uint64_t ParentId, std::string_view Phase);

  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> NextSpanId{1};
  std::mutex Mutex;
  AppendFile Sink;
  /// The sink's first failed write; records after it are dropped.
  std::string SinkError;
  std::chrono::steady_clock::time_point Epoch;
};

/// RAII span: allocates an id and pushes itself on the thread's span stack
/// at construction, pops and emits one span record at destruction. Extra
/// fields can be attached while the span is open. The parent defaults to
/// the span open on the constructing thread; pass \p ParentOverride to
/// link a cross-thread child (e.g. a pool job) to its coordinator span.
class TraceSpan {
public:
  explicit TraceSpan(std::string_view Name) : TraceSpan(Name, UseStack) {}
  TraceSpan(std::string_view Name, uint64_t ParentOverride);
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;
  ~TraceSpan();

  /// Attaches a field to the span record emitted at destruction.
  void note(TraceField Field) {
    if (Active)
      Fields.push_back(std::move(Field));
  }

  bool active() const { return Active; }
  /// This span's id (0 when tracing is disabled). Hand it to workers as
  /// their ParentOverride.
  uint64_t id() const { return Id; }

private:
  /// Sentinel ParentOverride: take the parent from the thread span stack.
  static constexpr uint64_t UseStack = ~0ull;

  std::string Name;
  bool Active;
  uint64_t StartUs = 0;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  std::string Phase;
  std::vector<TraceField> Fields;
};

/// RAII phase attribution: records emitted by this thread while the scope
/// is open carry \p Phase (the previous phase is restored on exit). The
/// campaign engine opens one per job with the paper's pipeline stages:
/// "fuzz" (test generation + bug-finding scan), "scan" (reduction-phase
/// bug scan), "reduce", "dedup".
class TracePhaseScope {
public:
  explicit TracePhaseScope(std::string_view Phase);
  TracePhaseScope(const TracePhaseScope &) = delete;
  TracePhaseScope &operator=(const TracePhaseScope &) = delete;
  ~TracePhaseScope();

private:
  bool Active;
  std::string Previous;
};

} // namespace telemetry
} // namespace spvfuzz

#endif // SUPPORT_TRACE_H
