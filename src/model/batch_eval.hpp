#pragma once
/// \file batch_eval.hpp
/// \brief The evaluation plan: the one production implementation of
/// the mapping evaluator's pair-noise physics, plus its batched access
/// pattern (score B assignments per pass).
///
/// `BatchEvalPlan` is the per-{NetworkModel, CommGraph} precompute: it
/// flattens every path's per-hop {tile, connection, arrive_gain,
/// exit_suffix} into one contiguous SoA arena, mirrors `hop_at_tile` as
/// one dense int16 table (the victim-side probe), bakes the router's
/// conflict policy + fidelity into one dense connection-pair gain
/// table, and derives a tile-occupancy bitmask per path. Three access
/// patterns share it: `BatchEvaluator`'s batched pass (single
/// evaluations are a batch of one), the incremental swap kernel
/// (model/incremental.hpp), and per-pair callers (the simulator, the
/// WDM interference matrix) through `pair_noise`.
///
/// The batched pass resolves each mapping's edges to path ids once,
/// then for each victim edge runs a vectorized bitmask sieve over all
/// attacker masks — path pairs sharing no tile contribute exactly +0.0
/// and are skipped wholesale — and hop-walks only the survivors.
///
/// Bit-identity contract: every metric equals a fresh
/// `evaluate_mapping` (the scalar test oracle) of the same assignment
/// bitwise — same per-hop operands and association, exact +0.0 skips
/// on a non-negative accumulator, per-attacker subtotals folded in
/// ascending edge order, and the same `std::min` folds. The full
/// argument is in src/model/README.md.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/comm_graph.hpp"
#include "model/evaluation.hpp"
#include "model/network_model.hpp"

namespace phonoc {

/// Worst-case metrics of one scored mapping (the Fig. 3 pair).
struct BatchPoint {
  double worst_loss_db = 0.0;
  double worst_snr_db = 0.0;
};

/// Immutable SoA mirror of the evaluation state for one
/// {NetworkModel, CommGraph} pair, and the one implementation of the
/// pair-noise physics (`pair_noise`) every production evaluation path
/// scores through. Build once, share freely: the plan is read-only
/// after construction and keeps no reference to the network or the CG,
/// so any number of BatchEvaluators and IncrementalEvaluations (one per
/// thread) can score against it concurrently. `MappingProblem` owns one
/// per problem.
class BatchEvalPlan {
 public:
  BatchEvalPlan(const NetworkModel& net, const CommGraph& cg);

  [[nodiscard]] std::size_t tile_count() const noexcept { return tiles_; }
  [[nodiscard]] std::size_t task_count() const noexcept { return tasks_; }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return edge_src_.size();
  }
  [[nodiscard]] double snr_ceiling_db() const noexcept { return ceiling_db_; }

  /// Source / destination task of CG edge `e`.
  [[nodiscard]] NodeId edge_src(std::size_t e) const noexcept {
    return edge_src_[e];
  }
  [[nodiscard]] NodeId edge_dst(std::size_t e) const noexcept {
    return edge_dst_[e];
  }

  /// Row index of the (src, dst) path in the per-path tables. Both
  /// tiles must be in range and distinct.
  [[nodiscard]] std::size_t path_id(TileId src, TileId dst) const noexcept {
    return static_cast<std::size_t>(src) * tiles_ + dst;
  }
  [[nodiscard]] double total_gain(std::size_t path) const noexcept {
    return total_gain_[path];
  }
  [[nodiscard]] double total_loss_db(std::size_t path) const noexcept {
    return total_loss_db_[path];
  }

  /// Noise power (linear, per unit attacker injected power) that path
  /// `attacker` adds onto path `victim`'s detector; bitwise equal to
  /// `noise_contribution` of the same two paths. Paths that share no
  /// tile contribute exactly +0.0 and are rejected by one mask test;
  /// the rest walk the attacker's hops.
  [[nodiscard]] double pair_noise(std::size_t victim,
                                  std::size_t attacker) const noexcept {
    const std::uint64_t* v = &tile_mask_[victim * mask_words_];
    const std::uint64_t* a = &tile_mask_[attacker * mask_words_];
    std::uint64_t shared = 0;
    for (std::size_t w = 0; w < mask_words_; ++w) shared |= v[w] & a[w];
    return shared == 0 ? 0.0 : hop_walk(arena(), victim, attacker);
  }

 private:
  friend class BatchEvaluator;

  /// Raw views of the hop arena and the gain table. A batched pass
  /// takes them once, so its walks load no member state per attacker.
  struct Arena {
    const std::uint32_t* offset;
    const std::uint32_t* tile;
    const std::uint32_t* conn;
    const double* arrive;
    const double* exit;
    const double* gain;
    const std::int16_t* victim_hop;
    std::size_t conns;
    std::size_t tiles;
  };
  [[nodiscard]] Arena arena() const noexcept {
    return {hop_offset_.data(), hop_tile_.data(),  hop_conn_.data(),
            hop_arrive_.data(), hop_exit_.data(),  pair_gain_.data(),
            victim_hop_.data(), conns_,            tiles_};
  }

  /// The pair's hop walk without the mask test (BatchEvaluator runs a
  /// vectorized sieve over all attackers first). Each term is
  /// `arrive * k * exit` with the operands and association of
  /// `noise_contribution`; a baked-in zero gain adds an exact +0.0.
  [[nodiscard]] static double hop_walk(const Arena& arena, std::size_t victim,
                                       std::size_t attacker) noexcept {
    const std::int16_t* victim_row = arena.victim_hop + victim * arena.tiles;
    const std::size_t vbase = arena.offset[victim];
    const std::size_t end = arena.offset[attacker + 1];
    double noise = 0.0;
    for (std::size_t h = arena.offset[attacker]; h < end; ++h) {
      const int vi = victim_row[arena.tile[h]];
      if (vi < 0) continue;
      const std::size_t vh = vbase + static_cast<std::size_t>(vi);
      noise += arena.arrive[h] *
               arena.gain[arena.conn[vh] * arena.conns + arena.conn[h]] *
               arena.exit[vh];
    }
    return noise;
  }

  std::size_t tiles_ = 0;
  std::size_t tasks_ = 0;
  double ceiling_db_ = 0.0;
  std::size_t conns_ = 0;       ///< router connection count (G row stride)
  std::size_t mask_words_ = 0;  ///< uint64 words per tile-occupancy mask

  // --- per CG edge -----------------------------------------------------------
  std::vector<NodeId> edge_src_;
  std::vector<NodeId> edge_dst_;

  // --- per ordered tile pair (path id = src * tiles + dst) -------------------
  /// Offset of each path's hops in the flat hop arena; one extra entry
  /// closes the last row, so path p's hops are [offset[p], offset[p+1]).
  std::vector<std::uint32_t> hop_offset_;
  std::vector<double> total_gain_;
  std::vector<double> total_loss_db_;
  /// Tile-occupancy bitmask, `mask_words_` words per path.
  std::vector<std::uint64_t> tile_mask_;
  /// Dense victim-side probe, `tiles_` int16 entries per path: the
  /// path's hop index at each tile, or -1 (PathData::hop_at_tile laid
  /// out contiguously, so a victim's whole row sits in one or two
  /// cache lines).
  std::vector<std::int16_t> victim_hop_;

  // --- flat per-hop arena (all paths back to back) ---------------------------
  std::vector<std::uint32_t> hop_tile_;
  std::vector<std::uint32_t> hop_conn_;
  std::vector<double> hop_arrive_;
  std::vector<double> hop_exit_;

  /// Dense pair gain, conns_ x conns_: `pair_noise_gain` with the
  /// conflict policy and fidelity baked in (conflicting or non-positive
  /// pairs hold exactly 0.0, so the kernel needs no branch on them).
  std::vector<double> pair_gain_;
};

/// Batched scorer over a shared plan. Owns reusable per-batch scratch,
/// so one instance serves one thread; create one per worker (exactly
/// how cells already own their Evaluator).
class BatchEvaluator {
 public:
  /// Score through a shared plan (must be non-null).
  explicit BatchEvaluator(std::shared_ptr<const BatchEvalPlan> plan);

  [[nodiscard]] const BatchEvalPlan& plan() const noexcept { return *plan_; }

  /// Score `batch` assignments laid out row-major in `assignments`
  /// (`batch * task_count` tiles). Every assignment is validated
  /// exactly like `evaluate_mapping` (injective, every tile in range).
  /// `out.size()` must equal `batch`. A non-empty `edges_out` receives
  /// per-edge detail: `batch * edge_count` EdgeMetrics rows
  /// (mapping-major), each bit-identical to
  /// `evaluate_mapping(..., detailed=true)`.
  void evaluate(std::span<const TileId> assignments, std::size_t batch,
                std::span<BatchPoint> out,
                std::span<EdgeMetrics> edges_out = {});

  /// Trusted entry: skips the per-assignment injectivity/range scan.
  /// Only for assignments whose validity is already guaranteed by a
  /// checked invariant (e.g. they were lifted out of `Mapping`, whose
  /// constructor enforces Eq. 5/6) — this is the validation hoist for
  /// bulk scoring, not a way to relax the public contract.
  void evaluate_trusted(std::span<const TileId> assignments,
                        std::size_t batch, std::span<BatchPoint> out,
                        std::span<EdgeMetrics> edges_out = {});

 private:
  void run(std::span<const TileId> assignments, std::size_t batch,
           std::span<BatchPoint> out, std::span<EdgeMetrics> edges_out,
           bool validate);
  void validate_assignment(std::span<const TileId> assignment);

  std::shared_ptr<const BatchEvalPlan> plan_;

  // --- per-batch scratch (reused across calls) -------------------------------
  std::vector<std::uint32_t> path_of_edge_;  ///< per edge
  std::vector<std::uint64_t> edge_mask_;     ///< per edge, mask_words_ each
  std::vector<std::uint64_t> sieve_;         ///< per edge, intersection words
  std::vector<std::uint8_t> tile_used_;      ///< validation scratch
};

}  // namespace phonoc
