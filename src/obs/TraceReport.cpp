//===- obs/TraceReport.cpp - Trace file analysis and reporting ------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceReport.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace spvfuzz;
using namespace spvfuzz::obs;

bool obs::parseTraceLine(const std::string &Line, TraceRecord &Out,
                         std::string &Error) {
  json::Value Object;
  if (!json::parse(Line, Object, Error))
    return false;
  if (!Object.isObject()) {
    Error = Object.error("expected an object");
    return false;
  }
  const json::Value *Type = Object.find("type");
  if (!Type || !Type->isString()) {
    Error = "missing record type";
    return false;
  }
  const json::Value *Name = Object.find("name");
  if (!Name || !Name->isString()) {
    Error = "missing record name";
    return false;
  }
  Out.Type = Type->Text;
  Out.Name = Name->Text;
  if (!Object.getString("phase", Out.Phase, Error) ||
      !Object.getCount("ts_us", Out.TsUs, Error) ||
      !Object.getCount("dur_us", Out.DurUs, Error) ||
      !Object.getCount("id", Out.Id, Error) ||
      !Object.getCount("parent", Out.Parent, Error))
    return false;
  // Everything else is a free-form field: a string or a number.
  for (const auto &[Key, Value] : Object.Members) {
    if (Value.isString()) {
      if (Key != "type" && Key != "name" && Key != "phase")
        Out.Text[Key] = Value.Text;
    } else if (Value.isNumber()) {
      if (Key != "ts_us" && Key != "dur_us" && Key != "id" && Key != "parent")
        Out.Numbers[Key] = Value.Number;
    } else {
      Error = Value.error("expected a string or a number");
      return false;
    }
  }
  return true;
}

bool obs::loadTraceFile(const std::string &Path,
                        std::vector<TraceRecord> &Out, std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  std::string Line;
  uint64_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    TraceRecord Record;
    std::string LineError;
    if (!parseTraceLine(Line, Record, LineError)) {
      Error = Path + ":" + std::to_string(LineNo) + ": " + LineError;
      return false;
    }
    Out.push_back(std::move(Record));
  }
  return true;
}

namespace {

std::string formatMs(double Us) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f", Us / 1000.0);
  return Buf;
}

struct Row {
  std::string Label;
  uint64_t Count = 0;
  double SelfUs = 0.0;
  double TotalUs = 0.0;
  double Steps = 0.0;
};

void renderRows(std::ostringstream &Out, const char *Header,
                const char *LabelName, std::vector<Row> Rows, size_t Limit,
                bool ShowSteps) {
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    return A.SelfUs != B.SelfUs ? A.SelfUs > B.SelfUs : A.Label < B.Label;
  });
  if (Limit && Rows.size() > Limit)
    Rows.resize(Limit);
  size_t Width = 12;
  for (const Row &R : Rows)
    Width = std::max(Width, R.Label.size());
  Out << Header << "\n";
  char Line[256];
  std::snprintf(Line, sizeof(Line), "  %-*s %10s %12s %12s", (int)Width,
                LabelName, "count", "self-ms", "total-ms");
  Out << Line;
  if (ShowSteps)
    Out << "        steps";
  Out << "\n";
  for (const Row &R : Rows) {
    std::snprintf(Line, sizeof(Line), "  %-*s %10llu %12s %12s", (int)Width,
                  R.Label.c_str(), (unsigned long long)R.Count,
                  formatMs(R.SelfUs).c_str(), formatMs(R.TotalUs).c_str());
    Out << Line;
    if (ShowSteps) {
      std::snprintf(Line, sizeof(Line), " %12.0f", R.Steps);
      Out << Line;
    }
    Out << "\n";
  }
  if (Rows.empty())
    Out << "  (none)\n";
  Out << "\n";
}

} // namespace

std::string obs::renderTraceReport(const std::vector<TraceRecord> &Records,
                                   const telemetry::MetricsSnapshot *Metrics,
                                   size_t TopK) {
  // Self time: a span's duration minus the summed duration of its direct
  // children. Spans are emitted at destruction (children precede parents),
  // so child sums must be collected over the whole file first.
  std::map<uint64_t, double> ChildUs;
  size_t Spans = 0, Events = 0;
  uint64_t EndUs = 0;
  for (const TraceRecord &Record : Records) {
    EndUs = std::max(EndUs, Record.TsUs + Record.DurUs);
    if (!Record.isSpan()) {
      ++Events;
      continue;
    }
    ++Spans;
    if (Record.Parent)
      ChildUs[Record.Parent] += static_cast<double>(Record.DurUs);
  }

  auto selfUs = [&](const TraceRecord &Record) {
    double Children = 0.0;
    auto It = ChildUs.find(Record.Id);
    if (It != ChildUs.end())
      Children = It->second;
    double Dur = static_cast<double>(Record.DurUs);
    return Dur > Children ? Dur - Children : 0.0;
  };

  std::map<std::string, Row> PerPhase, PerName, PerTarget;
  for (const TraceRecord &Record : Records) {
    if (!Record.isSpan())
      continue;
    double Self = selfUs(Record);
    double Dur = static_cast<double>(Record.DurUs);

    std::string Phase = Record.Phase.empty() ? "(other)" : Record.Phase;
    Row &P = PerPhase[Phase];
    P.Label = Phase;
    ++P.Count;
    P.SelfUs += Self;
    P.TotalUs += Dur;
    auto Steps = Record.Numbers.find("steps");
    if (Steps != Record.Numbers.end())
      P.Steps += Steps->second;

    Row &N = PerName[Record.Name];
    N.Label = Record.Name;
    ++N.Count;
    N.SelfUs += Self;
    N.TotalUs += Dur;

    auto Target = Record.Text.find("target");
    if (Target != Record.Text.end()) {
      Row &T = PerTarget[Target->second];
      T.Label = Target->second;
      ++T.Count;
      T.SelfUs += Self;
      T.TotalUs += Dur;
    }
  }

  auto values = [](const std::map<std::string, Row> &Rows) {
    std::vector<Row> Out;
    for (const auto &[Label, R] : Rows)
      Out.push_back(R);
    return Out;
  };

  std::ostringstream Out;
  Out << "trace report: " << Spans << " spans, " << Events << " events, "
      << formatMs(static_cast<double>(EndUs)) << " ms covered\n\n";
  renderRows(Out, "time by phase (span self time)", "phase",
             values(PerPhase), /*Limit=*/0, /*ShowSteps=*/true);
  renderRows(Out, "hottest spans", "span", values(PerName), TopK,
             /*ShowSteps=*/false);
  renderRows(Out, "time by target", "target", values(PerTarget),
             /*Limit=*/0, /*ShowSteps=*/false);

  if (Metrics) {
    static const std::string Prefix = "transformation.apply_us.";
    std::vector<std::pair<std::string, telemetry::HistogramStats>> Kinds;
    for (const auto &[Name, Stats] : Metrics->Histograms)
      if (Name.rfind(Prefix, 0) == 0)
        Kinds.emplace_back(Name.substr(Prefix.size()), Stats);
    std::sort(Kinds.begin(), Kinds.end(), [](const auto &A, const auto &B) {
      return A.second.Sum != B.second.Sum ? A.second.Sum > B.second.Sum
                                          : A.first < B.first;
    });
    if (Kinds.size() > TopK)
      Kinds.resize(TopK);
    Out << "hottest transformation kinds (apply time)\n";
    if (Kinds.empty()) {
      Out << "  (no transformation.apply_us.* histograms in metrics)\n";
    } else {
      char Line[256];
      std::snprintf(Line, sizeof(Line), "  %-28s %10s %12s %10s %10s",
                    "kind", "applies", "total-ms", "mean-us", "p99-us");
      Out << Line << "\n";
      for (const auto &[Kind, Stats] : Kinds) {
        std::snprintf(Line, sizeof(Line),
                      "  %-28s %10llu %12s %10.1f %10.1f", Kind.c_str(),
                      (unsigned long long)Stats.Count,
                      formatMs(Stats.Sum).c_str(), Stats.Mean, Stats.P99);
        Out << Line << "\n";
      }
    }
    Out << "\n";
  }
  return Out.str();
}
