#include "engine/engine.hpp"

#include "baselines/hqs_lite.hpp"
#include "baselines/pedant_lite.hpp"

namespace manthan::engine {

const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kManthan3: return "Manthan3";
    case EngineKind::kHqsLite: return "HqsLite";
    case EngineKind::kPedantLite: return "PedantLite";
  }
  return "?";
}

const char* status_name(core::SynthesisStatus status) {
  switch (status) {
    case core::SynthesisStatus::kRealizable: return "realizable";
    case core::SynthesisStatus::kUnrealizable: return "unrealizable";
    case core::SynthesisStatus::kIncomplete: return "incomplete";
    case core::SynthesisStatus::kLimit: return "limit";
    case core::SynthesisStatus::kTimeout: return "timeout";
    case core::SynthesisStatus::kOutOfBudget: return "out_of_budget";
    case core::SynthesisStatus::kInternalError: return "internal_error";
  }
  return "?";
}

std::optional<core::SynthesisStatus> status_from_name(
    const std::string& name) {
  for (const auto status :
       {core::SynthesisStatus::kRealizable, core::SynthesisStatus::kUnrealizable,
        core::SynthesisStatus::kIncomplete, core::SynthesisStatus::kLimit,
        core::SynthesisStatus::kTimeout, core::SynthesisStatus::kOutOfBudget,
        core::SynthesisStatus::kInternalError}) {
    if (name == status_name(status)) return status;
  }
  return std::nullopt;
}

std::optional<EngineKind> engine_from_name(const std::string& name) {
  for (const auto kind : {EngineKind::kManthan3, EngineKind::kHqsLite,
                          EngineKind::kPedantLite}) {
    if (name == engine_name(kind)) return kind;
  }
  return std::nullopt;
}

core::SynthesisResult run_engine(const dqbf::DqbfFormula& formula,
                                 aig::Aig& manager, EngineKind kind,
                                 const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kManthan3: {
      core::Manthan3Options opts;
      opts.time_limit_seconds = options.time_limit_seconds;
      opts.seed = options.seed;
      opts.cancel = options.cancel;
      opts.trace_id = options.trace_id;
      core::Manthan3 synthesizer(opts);
      return synthesizer.synthesize(formula, manager);
    }
    case EngineKind::kHqsLite: {
      baselines::HqsLiteOptions opts;
      opts.time_limit_seconds = options.time_limit_seconds;
      opts.cancel = options.cancel;
      baselines::HqsLite synthesizer(opts);
      return synthesizer.synthesize(formula, manager);
    }
    case EngineKind::kPedantLite: {
      baselines::PedantLiteOptions opts;
      opts.time_limit_seconds = options.time_limit_seconds;
      opts.cancel = options.cancel;
      baselines::PedantLite synthesizer(opts);
      return synthesizer.synthesize(formula, manager);
    }
  }
  return {};
}

}  // namespace manthan::engine
