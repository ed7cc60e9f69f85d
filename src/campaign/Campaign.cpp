//===- campaign/Campaign.cpp - Testing campaign harness --------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"

#include <algorithm>

using namespace spvfuzz;

Corpus spvfuzz::makeCorpus(const CorpusSpec &Spec) {
  uint64_t Seed = Spec.Seed.value_or(2021);
  Corpus C;
  C.References = generateCorpus(Spec.NumReferences, Seed);
  C.DonorPrograms = generateCorpus(Spec.NumDonors, Seed + 0x9e3779b9ULL);
  for (const GeneratedProgram &Donor : C.DonorPrograms)
    C.Donors.push_back(&Donor.M);
  return C;
}

std::vector<ToolConfig> spvfuzz::standardTools(const ToolsetSpec &Spec) {
  FuzzerOptions Full;
  Full.TransformationLimit = Spec.TransformationLimit.value_or(300);
  Full.Profile = FuzzerProfile::Full;
  Full.EnableRecommendations = true;

  FuzzerOptions Simple = Full;
  Simple.EnableRecommendations = false;

  FuzzerOptions Baseline = Full;
  Baseline.Profile = FuzzerProfile::Baseline;
  Baseline.EnableRecommendations = false;

  // Seed streams are fixed by canonical position so that filtering the tool
  // list does not change any surviving tool's per-test seed sequence.
  std::vector<ToolConfig> All = {{"spirv-fuzz", Full, 0},
                                 {"spirv-fuzz-simple", Simple, 1},
                                 {"glsl-fuzz", Baseline, 2}};
  if (Spec.Names.empty())
    return All;
  std::vector<ToolConfig> Filtered;
  for (const ToolConfig &Tool : All)
    for (const std::string &Name : Spec.Names)
      if (Tool.Name == Name) {
        Filtered.push_back(Tool);
        break;
      }
  return Filtered;
}

static uint64_t splitmix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

uint64_t spvfuzz::testSeed(uint64_t CampaignSeed, uint32_t SeedStream,
                           size_t TestIndex) {
  uint64_t X = splitmix64(CampaignSeed);
  X = splitmix64(X ^ SeedStream);
  return splitmix64(X ^ static_cast<uint64_t>(TestIndex));
}

/// Rewrites every scalar leaf of \p V from a splitmix chain threaded
/// through \p State; composites recurse, so the leaf position orders the
/// chain deterministically. Booleans stay 0/1.
static void perturbValue(Value &V, uint64_t &State) {
  switch (V.ValueKind) {
  case Value::Kind::Int:
    State = splitmix64(State);
    V.Scalar = static_cast<int32_t>(State);
    break;
  case Value::Kind::Bool:
    State = splitmix64(State);
    V.Scalar = static_cast<int32_t>((State >> 32) & 1);
    break;
  case Value::Kind::Composite:
    for (Value &Elem : V.Elements)
      perturbValue(Elem, State);
    break;
  case Value::Kind::Pointer:
    break; // pointers never appear in shader inputs
  }
}

std::vector<ShaderInput> spvfuzz::uniformInputMatrix(const ShaderInput &Base,
                                                     size_t Count,
                                                     uint64_t Seed) {
  std::vector<ShaderInput> Matrix;
  Matrix.reserve(std::max<size_t>(Count, 1));
  Matrix.push_back(Base);
  for (size_t K = 1; K < Count; ++K) {
    ShaderInput Input = Base;
    for (auto &[Binding, V] : Input.Bindings) {
      uint64_t State = splitmix64(Seed ^ 0x756e69666f726dULL); // "uniform"
      State = splitmix64(State ^ static_cast<uint64_t>(K));
      State = splitmix64(State ^ Binding);
      perturbValue(V, State);
    }
    Matrix.push_back(std::move(Input));
  }
  return Matrix;
}

FuzzResult spvfuzz::regenerateTest(const Corpus &C, const ToolConfig &Tool,
                                   uint64_t CampaignSeed, size_t TestIndex,
                                   size_t &ReferenceIndexOut) {
  ReferenceIndexOut = TestIndex % C.References.size();
  const GeneratedProgram &Reference = C.References[ReferenceIndexOut];
  return fuzz(Reference.M, Reference.Input, C.Donors,
              testSeed(CampaignSeed, Tool.SeedStream, TestIndex),
              Tool.Options);
}

TestEvaluation spvfuzz::evaluateTest(const Corpus &C, const ToolConfig &Tool,
                                     const std::vector<const Target *> &Targets,
                                     uint64_t CampaignSeed, size_t TestIndex,
                                     bool CrashesOnly) {
  return evaluateTestOn(C, Tool, Targets, CampaignSeed, TestIndex,
                        CrashesOnly);
}

TestEvaluation spvfuzz::evaluateTest(const Corpus &C, const ToolConfig &Tool,
                                     const std::vector<Target> &Targets,
                                     uint64_t CampaignSeed, size_t TestIndex) {
  std::vector<const Target *> Pointers;
  Pointers.reserve(Targets.size());
  for (const Target &T : Targets)
    Pointers.push_back(&T);
  return evaluateTest(C, Tool, Pointers, CampaignSeed, TestIndex,
                      /*CrashesOnly=*/false);
}

InterestingnessTest
spvfuzz::makeInterestingnessTest(const Target &T, const std::string &Signature,
                                 const Module &Original,
                                 const ShaderInput &Input) {
  return makeInterestingnessTestFor(T, Signature, Original, Input);
}
