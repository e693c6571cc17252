#include "model/batch_eval.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/units.hpp"

namespace phonoc {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define PHONOC_RESTRICT __restrict__
#else
#define PHONOC_RESTRICT
#endif

/// The vectorized sieve (single-mask-word fast path, tiles <= 64):
/// intersect the victim's tile mask with every attacker's. A zero word
/// means the two paths share no tile, so every per-hop term of the pair
/// is exactly +0.0 and the whole attacker is skipped. Kept as its own
/// function over restrict-qualified pointers so the loop carries no
/// aliasing barrier — CI compiles this TU with -fopt-info-vec and
/// fails if the loop stops vectorizing.
void sieve_row(const std::uint64_t* PHONOC_RESTRICT masks,
               std::uint64_t victim_mask,
               std::uint64_t* PHONOC_RESTRICT inter, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) inter[i] = masks[i] & victim_mask;
}

/// Generic multi-word sieve (tiles > 64): OR-fold the per-word
/// intersections into one nonzero/zero word per attacker.
void sieve_row_wide(const std::uint64_t* PHONOC_RESTRICT masks,
                    const std::uint64_t* PHONOC_RESTRICT victim_mask,
                    std::uint64_t* PHONOC_RESTRICT inter, std::size_t n,
                    std::size_t words) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t acc = 0;
    for (std::size_t w = 0; w < words; ++w)
      acc |= masks[i * words + w] & victim_mask[w];
    inter[i] = acc;
  }
}

}  // namespace

BatchEvalPlan::BatchEvalPlan(const NetworkModel& net, const CommGraph& cg)
    : tiles_(net.tile_count()),
      tasks_(cg.task_count()),
      ceiling_db_(net.options().snr_ceiling_db),
      conns_(net.router().connection_count()),
      mask_words_((net.tile_count() + 63) / 64) {
  require(tasks_ <= tiles_,
          "BatchEvalPlan: more tasks than tiles (violates Eq. 2)");

  const auto edges = cg.edges();
  edge_src_.reserve(edges.size());
  edge_dst_.reserve(edges.size());
  for (const auto& e : edges) {
    edge_src_.push_back(e.src);
    edge_dst_.push_back(e.dst);
  }

  // Dense pair-gain table with the conflict policy and fidelity baked
  // in. evaluate_mapping skips terms with k <= 0 before multiplying;
  // clamping those entries to exactly 0.0 makes the multiplied-through
  // term an exact +0.0 — the same identity on a non-negative
  // accumulator, so the dense lookup needs no skip branch.
  pair_gain_.resize(conns_ * conns_);
  for (std::size_t v = 0; v < conns_; ++v)
    for (std::size_t a = 0; a < conns_; ++a) {
      const double k = net.pair_noise_gain(static_cast<std::uint16_t>(v),
                                           static_cast<std::uint16_t>(a));
      pair_gain_[v * conns_ + a] = k > 0.0 ? k : 0.0;
    }

  // Flatten every ordered tile pair's path, in path-id order. Diagonal
  // rows stay empty and are never referenced: assignments are injective
  // and the CG has no self-loops.
  const std::size_t path_rows = tiles_ * tiles_;
  hop_offset_.assign(path_rows + 1, 0);
  total_gain_.assign(path_rows, 1.0);
  total_loss_db_.assign(path_rows, 0.0);
  tile_mask_.assign(path_rows * mask_words_, 0);
  victim_hop_.assign(path_rows * tiles_, std::int16_t{-1});

  std::size_t total_hops = 0;
  for (TileId s = 0; s < tiles_; ++s)
    for (TileId d = 0; d < tiles_; ++d)
      if (s != d) total_hops += net.path(s, d).hops.size();
  hop_tile_.reserve(total_hops);
  hop_conn_.reserve(total_hops);
  hop_arrive_.reserve(total_hops);
  hop_exit_.reserve(total_hops);

  for (TileId s = 0; s < tiles_; ++s) {
    for (TileId d = 0; d < tiles_; ++d) {
      const std::size_t pid = path_id(s, d);
      hop_offset_[pid] = static_cast<std::uint32_t>(hop_tile_.size());
      if (s == d) continue;
      const PathData& p = net.path(s, d);
      for (std::size_t h = 0; h < p.hops.size(); ++h) {
        hop_tile_.push_back(p.hops[h].tile);
        hop_conn_.push_back(p.conn[h]);
        hop_arrive_.push_back(p.arrive_gain[h]);
        hop_exit_.push_back(p.exit_suffix[h]);
      }
      total_gain_[pid] = p.total_gain;
      total_loss_db_[pid] = p.total_loss_db;
      // The probe row and the mask both mirror hop_at_tile (not the hop
      // list), so the kernel's visited test agrees with hop_index_at
      // exactly.
      for (TileId t = 0; t < tiles_; ++t) {
        const int hi = p.hop_index_at(t);
        if (hi < 0) continue;
        victim_hop_[pid * tiles_ + t] = static_cast<std::int16_t>(hi);
        tile_mask_[pid * mask_words_ + t / 64] |= std::uint64_t{1} << (t % 64);
      }
    }
  }
  hop_offset_[path_rows] = static_cast<std::uint32_t>(hop_tile_.size());
}

BatchEvaluator::BatchEvaluator(std::shared_ptr<const BatchEvalPlan> plan)
    : plan_(std::move(plan)) {
  require(plan_ != nullptr, "BatchEvaluator: null plan");
  const std::size_t edges = plan_->edge_count();
  path_of_edge_.resize(edges);
  edge_mask_.resize(edges * plan_->mask_words_);
  sieve_.resize(edges);
  tile_used_.resize(plan_->tiles_);
}

void BatchEvaluator::evaluate(std::span<const TileId> assignments,
                              std::size_t batch, std::span<BatchPoint> out,
                              std::span<EdgeMetrics> edges_out) {
  run(assignments, batch, out, edges_out, /*validate=*/true);
}

void BatchEvaluator::evaluate_trusted(std::span<const TileId> assignments,
                                      std::size_t batch,
                                      std::span<BatchPoint> out,
                                      std::span<EdgeMetrics> edges_out) {
  run(assignments, batch, out, edges_out, /*validate=*/false);
}

void BatchEvaluator::validate_assignment(std::span<const TileId> assignment) {
  std::fill(tile_used_.begin(), tile_used_.end(), std::uint8_t{0});
  for (const auto tile : assignment) {
    require(tile < plan_->tiles_,
            "BatchEvaluator: assignment targets a tile out of range");
    require(!tile_used_[tile],
            "BatchEvaluator: two tasks mapped to the same tile");
    tile_used_[tile] = 1;
  }
}

void BatchEvaluator::run(std::span<const TileId> assignments,
                         std::size_t batch, std::span<BatchPoint> out,
                         std::span<EdgeMetrics> edges_out, bool validate) {
  const BatchEvalPlan& plan = *plan_;
  const std::size_t tasks = plan.tasks_;
  const std::size_t edges = plan.edge_count();
  require(assignments.size() == batch * tasks,
          "BatchEvaluator: assignments size != batch * task_count");
  require(out.size() == batch, "BatchEvaluator: out size != batch");
  require(edges_out.empty() || edges_out.size() == batch * edges,
          "BatchEvaluator: edges_out size != batch * edge_count");

  const std::size_t words = plan.mask_words_;
  const BatchEvalPlan::Arena arena = plan.arena();

  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const TileId> assignment =
        assignments.subspan(b * tasks, tasks);
    if (validate) validate_assignment(assignment);

    BatchPoint point;
    point.worst_snr_db = plan.ceiling_db_;
    if (edges == 0) {
      out[b] = point;
      continue;
    }

    // Resolve this mapping's edges to path ids once and gather their
    // tile masks into contiguous scratch (the sieve's operands).
    for (std::size_t e = 0; e < edges; ++e) {
      const std::size_t pid =
          plan.path_id(assignment[plan.edge_src_[e]],
                       assignment[plan.edge_dst_[e]]);
      path_of_edge_[e] = static_cast<std::uint32_t>(pid);
      for (std::size_t w = 0; w < words; ++w)
        edge_mask_[e * words + w] = plan.tile_mask_[pid * words + w];
    }

    EdgeMetrics* detail =
        edges_out.empty() ? nullptr : edges_out.data() + b * edges;

    for (std::size_t v = 0; v < edges; ++v) {
      const std::size_t pv = path_of_edge_[v];

      if (words == 1)
        sieve_row(edge_mask_.data(), plan.tile_mask_[pv], sieve_.data(),
                  edges);
      else
        sieve_row_wide(edge_mask_.data(), &plan.tile_mask_[pv * words],
                       sieve_.data(), edges, words);
      sieve_[v] = 0;  // a == v contributes nothing (self-pair)

      // Ascending attacker order with per-attacker subtotals — the
      // exact addition sequence of evaluate_mapping's nested
      // noise_contribution calls (skipped pairs/hops add exact +0.0,
      // the identity on this non-negative accumulator).
      double noise = 0.0;
      for (std::size_t a = 0; a < edges; ++a)
        if (sieve_[a] != 0)
          noise += BatchEvalPlan::hop_walk(arena, pv, path_of_edge_[a]);

      const double snr =
          std::min(snr_db(plan.total_gain_[pv], noise), plan.ceiling_db_);
      point.worst_loss_db =
          std::min(point.worst_loss_db, plan.total_loss_db_[pv]);
      point.worst_snr_db = std::min(point.worst_snr_db, snr);
      if (detail != nullptr) {
        detail[v] = EdgeMetrics{static_cast<EdgeId>(v),
                                assignment[plan.edge_src_[v]],
                                assignment[plan.edge_dst_[v]],
                                plan.total_loss_db_[pv],
                                plan.total_gain_[pv],
                                noise,
                                snr};
      }
    }
    out[b] = point;
  }
}

}  // namespace phonoc
