#include "core/problem.hpp"

#include "util/error.hpp"

namespace phonoc {

MappingProblem::MappingProblem(CommGraph cg,
                               std::shared_ptr<const NetworkModel> network,
                               std::shared_ptr<const Objective> objective)
    : cg_(std::move(cg)),
      network_(std::move(network)),
      objective_(std::move(objective)) {
  require(network_ != nullptr, "MappingProblem: null network model");
  require(objective_ != nullptr, "MappingProblem: null objective");
  cg_.validate();
  require(cg_.task_count() <= network_->tile_count(),
          "MappingProblem: more tasks than tiles (violates Eq. 2: "
          "size(C) <= size(T))");
  plan_ = std::make_shared<const BatchEvalPlan>(*network_, cg_);
}

}  // namespace phonoc
