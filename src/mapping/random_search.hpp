#pragma once
/// \file random_search.hpp
/// \brief Random search (paper baseline): sample random injective
/// mappings and keep the best.
///
/// Samples are generated and scored in chunks of `kChunk` through the
/// fitness function's batch entry. Generation consumes RNG and scoring
/// does not, and each chunk is capped by the remaining evaluation
/// budget, so the RNG stream, budget, trace and memo trajectory are
/// exactly those of a sequential sample-then-score loop.

#include <cstddef>

#include "mapping/optimizer.hpp"

namespace phonoc {

class RandomSearch final : public MappingOptimizer {
 public:
  /// Mappings generated and scored per batched pass.
  static constexpr std::size_t kChunk = 64;

  [[nodiscard]] std::string name() const override { return "rs"; }
  [[nodiscard]] OptimizerResult optimize(FitnessFunction& fitness,
                                         std::size_t task_count,
                                         std::size_t tile_count,
                                         const OptimizerBudget& budget,
                                         std::uint64_t seed) const override;
};

}  // namespace phonoc
