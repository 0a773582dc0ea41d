// Partial equivalence checking (the paper's ECO / partial-design
// motivation): a circuit with missing blackboxes must be rectified to
// match a golden specification. The blackbox contents are exactly Henkin
// functions of the wires each box observes.
//
// The example generates a PEC instance, synthesizes the blackbox functions
// with Manthan3, cross-checks with HqsLite, and prints the patch.
#include <iostream>

#include "aig/aig.hpp"
#include "baselines/hqs_lite.hpp"
#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "portfolio/runner.hpp"
#include "workloads/workloads.hpp"

int main() {
  manthan::workloads::PecParams params;
  params.num_inputs = 7;
  params.num_outputs = 2;
  params.num_blackboxes = 3;
  params.blackbox_inputs = 3;
  params.circuit_gates = 14;
  params.seed = 2023;
  const manthan::dqbf::DqbfFormula spec = manthan::workloads::gen_pec(params);

  std::cout << "partial-equivalence instance: " << spec.num_universals()
            << " circuit inputs, " << params.num_blackboxes
            << " blackboxes, "
            << spec.num_existentials() - params.num_blackboxes
            << " auxiliary gate variables, "
            << spec.matrix().num_clauses() << " clauses\n";

  // Synthesize patch functions with Manthan3.
  manthan::aig::Aig manager;
  manthan::core::Manthan3Options options;
  options.time_limit_seconds = 30.0;
  manthan::core::Manthan3 synthesizer(options);
  const manthan::core::SynthesisResult result =
      synthesizer.synthesize(spec, manager);
  if (result.status != manthan::core::SynthesisStatus::kRealizable) {
    std::cout << "Manthan3 could not rectify the design\n";
    return 1;
  }
  const manthan::dqbf::CertificateResult cert =
      manthan::dqbf::check_certificate(spec, manager, result.vector);
  std::cout << "Manthan3 rectified the design ("
            << result.stats.counterexamples << " counterexamples, "
            << result.stats.repairs << " repairs); certificate "
            << (cert.status == manthan::dqbf::CertificateStatus::kValid
                    ? "VALID"
                    : "INVALID")
            << "\n";

  for (std::size_t j = 0; j < params.num_blackboxes; ++j) {
    const auto support = manager.support(result.vector.functions[j]);
    std::cout << "  patch w" << j << " observes {";
    for (std::size_t k = 0; k < support.size(); ++k) {
      std::cout << (k ? "," : "") << 'x' << support[k];
    }
    std::cout << "}, " << manager.cone_size(result.vector.functions[j])
              << " AND nodes\n";
  }

  // Cross-check with the elimination-based baseline.
  manthan::aig::Aig manager2;
  manthan::baselines::HqsLiteOptions hqs_options;
  hqs_options.time_limit_seconds = 30.0;
  manthan::baselines::HqsLite hqs(hqs_options);
  const manthan::core::SynthesisResult hqs_result =
      hqs.synthesize(spec, manager2);
  std::cout << "HqsLite on the same instance: "
            << manthan::portfolio::status_name(hqs_result.status) << "\n";

  return cert.status == manthan::dqbf::CertificateStatus::kValid ? 0 : 1;
}
