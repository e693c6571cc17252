#pragma once
// Test oracle for the evaluation layer: fitness scored by the scalar
// `evaluate_mapping`, independent of the evaluation plan every
// production path runs on. It keeps FitnessFunction's default
// whole-mapping move API, so each propose_swap is one full evaluation
// and commit/revert are state-free.

#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "core/problem.hpp"
#include "mapping/optimizer.hpp"
#include "mapping/registry.hpp"
#include "model/evaluation.hpp"

namespace phonoc {

class OracleFitness final : public FitnessFunction {
 public:
  explicit OracleFitness(const MappingProblem& problem) : problem_(problem) {}

  double evaluate(const Mapping& mapping) override {
    ++count_;
    return problem_.objective().fitness(evaluate_mapping(
        problem_.network(), problem_.cg(), mapping.assignment(),
        problem_.objective().needs_detail()));
  }

  /// Logical evaluations: one per evaluate/propose_swap call.
  [[nodiscard]] std::uint64_t evaluation_count() const { return count_; }

 private:
  const MappingProblem& problem_;
  std::uint64_t count_ = 0;
};

/// A registered optimizer run scored by the oracle, packaged like
/// `Engine::run`.
inline RunResult oracle_run(const MappingProblem& problem,
                            const std::string& optimizer_name,
                            const OptimizerBudget& budget,
                            std::uint64_t seed) {
  OracleFitness oracle(problem);
  const auto optimizer = make_optimizer(optimizer_name);
  RunResult result;
  result.algorithm = optimizer->name();
  result.search = optimizer->optimize(oracle, problem.task_count(),
                                      problem.tile_count(), budget, seed);
  result.best_evaluation =
      evaluate_mapping(problem.network(), problem.cg(),
                       result.search.best.assignment(), /*detailed=*/true);
  return result;
}

}  // namespace phonoc
