#include "mapping/random_search.hpp"

#include <algorithm>
#include <vector>

namespace phonoc {

OptimizerResult RandomSearch::optimize(FitnessFunction& fitness,
                                       std::size_t task_count,
                                       std::size_t tile_count,
                                       const OptimizerBudget& budget,
                                       std::uint64_t seed) const {
  SearchState state(fitness, task_count, tile_count, budget, seed);
  std::vector<Mapping> chunk;
  std::vector<double> scores;
  std::uint64_t samples = 0;
  // At least one chunk: the first always has room for one evaluation
  // (a zero evaluation cap means a time-only budget).
  do {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        kChunk, state.remaining_evaluations()));
    chunk.clear();
    for (std::size_t i = 0; i < n; ++i)
      chunk.push_back(Mapping::random(task_count, tile_count, state.rng()));
    scores.resize(n);
    state.evaluate_batch(chunk, scores);
    samples += n;
  } while (!state.exhausted());
  return state.finish(samples);
}

}  // namespace phonoc
