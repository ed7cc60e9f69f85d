//===- campaign/Experiments.cpp - Drivers for the paper's experiments ------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "campaign/Experiments.h"

using namespace spvfuzz;

//===----------------------------------------------------------------------===//
// Table 3 + Figure 7
//===----------------------------------------------------------------------===//

ToolTargetStats BugFindingData::allTargets(const std::string &Tool) const {
  ToolTargetStats All;
  All.PerGroup.resize(Config.NumGroups);
  auto ToolIt = Stats.find(Tool);
  if (ToolIt == Stats.end())
    return All;
  for (const auto &[TargetName, TargetStats] : ToolIt->second) {
    for (const std::string &Sig : TargetStats.Distinct)
      All.Distinct.insert(TargetName + ":" + Sig);
    for (size_t G = 0; G < TargetStats.PerGroup.size() &&
                       G < All.PerGroup.size();
         ++G)
      for (const std::string &Sig : TargetStats.PerGroup[G])
        All.PerGroup[G].insert(TargetName + ":" + Sig);
  }
  return All;
}

VennCounts spvfuzz::vennForTarget(const BugFindingData &Data,
                                  const std::string &TargetName) {
  auto SetFor = [&](const std::string &Tool) -> std::set<std::string> {
    if (TargetName == "All")
      return Data.allTargets(Tool).Distinct;
    auto ToolIt = Data.Stats.find(Tool);
    if (ToolIt == Data.Stats.end())
      return {};
    auto TargetIt = ToolIt->second.find(TargetName);
    if (TargetIt == ToolIt->second.end())
      return {};
    return TargetIt->second.Distinct;
  };
  std::set<std::string> A = SetFor("spirv-fuzz");
  std::set<std::string> B = SetFor("spirv-fuzz-simple");
  std::set<std::string> C = SetFor("glsl-fuzz");

  std::set<std::string> Union;
  Union.insert(A.begin(), A.end());
  Union.insert(B.begin(), B.end());
  Union.insert(C.begin(), C.end());

  VennCounts Counts;
  for (const std::string &Sig : Union) {
    bool InA = A.count(Sig), InB = B.count(Sig), InC = C.count(Sig);
    if (InA && InB && InC)
      ++Counts.ABC;
    else if (InA && InB)
      ++Counts.AB;
    else if (InA && InC)
      ++Counts.AC;
    else if (InB && InC)
      ++Counts.BC;
    else if (InA)
      ++Counts.OnlyA;
    else if (InB)
      ++Counts.OnlyB;
    else
      ++Counts.OnlyC;
  }
  return Counts;
}

//===----------------------------------------------------------------------===//
// Reductions (RQ2)
//===----------------------------------------------------------------------===//

std::vector<ReductionRecord>
ReductionData::forTool(const std::string &Tool) const {
  std::vector<ReductionRecord> Out;
  for (const ReductionRecord &Record : Records)
    if (Record.Tool == Tool)
      Out.push_back(Record);
  return Out;
}

double
ReductionData::medianDelta(const std::vector<ReductionRecord> &Records) {
  std::vector<double> Deltas;
  for (const ReductionRecord &Record : Records)
    Deltas.push_back(static_cast<double>(Record.delta()));
  return median(std::move(Deltas));
}

double ReductionData::medianUnreducedDelta(
    const std::vector<ReductionRecord> &Records) {
  std::vector<double> Deltas;
  for (const ReductionRecord &Record : Records)
    Deltas.push_back(static_cast<double>(Record.unreducedDelta()));
  return median(std::move(Deltas));
}
