#pragma once
/// \file problem.hpp
/// \brief The mapping problem instance: application + architecture +
/// objective (paper §II-D1).

#include <memory>

#include "graph/comm_graph.hpp"
#include "mapping/objective.hpp"
#include "model/batch_eval.hpp"
#include "model/network_model.hpp"

namespace phonoc {

class MappingProblem {
 public:
  /// Validates Eq. (2): size(C) <= size(T), then builds the problem's
  /// evaluation plan.
  MappingProblem(CommGraph cg, std::shared_ptr<const NetworkModel> network,
                 std::shared_ptr<const Objective> objective);

  [[nodiscard]] const CommGraph& cg() const noexcept { return cg_; }
  [[nodiscard]] const NetworkModel& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] std::shared_ptr<const NetworkModel> network_ptr()
      const noexcept {
    return network_;
  }
  [[nodiscard]] const Objective& objective() const noexcept {
    return *objective_;
  }
  [[nodiscard]] std::shared_ptr<const Objective> objective_ptr()
      const noexcept {
    return objective_;
  }

  /// The evaluation plan of {network, cg}, built once here and shared
  /// (read-only, thread-safe) by every Evaluator, cell and cached
  /// service request on this problem.
  [[nodiscard]] const BatchEvalPlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] const std::shared_ptr<const BatchEvalPlan>& plan_ptr()
      const noexcept {
    return plan_;
  }

  [[nodiscard]] std::size_t task_count() const noexcept {
    return cg_.task_count();
  }
  [[nodiscard]] std::size_t tile_count() const noexcept {
    return network_->tile_count();
  }

 private:
  CommGraph cg_;
  std::shared_ptr<const NetworkModel> network_;
  std::shared_ptr<const Objective> objective_;
  std::shared_ptr<const BatchEvalPlan> plan_;
};

}  // namespace phonoc
