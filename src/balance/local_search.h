#pragma once

/// \file
/// \brief Anytime local search for the integrated balancing objective;
/// under measured-cost planning candidates are tried in descending
/// measured service-time share order.

#include <cstdint>
#include <vector>

#include "balance/balance_item.h"
#include "balance/rebalancer.h"
#include "common/result.h"

namespace albic::balance {

/// \brief Options for the anytime assignment local search.
struct LocalSearchOptions {
  /// Wall-clock cap. The search runs greedy improvement, then swap
  /// refinement, then perturb-and-reoptimize rounds until it converges —
  /// as many consecutive kicks as there are items without improving the
  /// best placement — or until this budget runs out, whichever comes
  /// first. A larger budget never yields a worse solution, but once the
  /// search converges inside the budget more time changes nothing: the
  /// quality-vs-time curves (the paper's Figs 2-4) flatten there.
  double time_budget_ms = 10.0;
  uint64_t seed = 42;
  /// Perturbation strength for the kick phase (fraction of items).
  double kick_fraction = 0.02;
};

/// \brief Outcome of a local-search solve.
struct LocalSearchSolution {
  std::vector<engine::NodeId> item_node;  ///< Placement per item.
  double load_distance = 0.0;  ///< max_{n in A} |load_n - mean|.
  double drain_load = 0.0;     ///< Residual load on nodes marked for removal.
  double used_cost = 0.0;      ///< Migration cost consumed.
  int used_count = 0;          ///< Key groups migrated.
  int iterations = 0;          ///< Accepted moves.
  /// True when the search stopped at time_budget_ms rather than by
  /// converging; only then can a larger budget change the result.
  bool hit_budget = false;
};

/// \brief Anytime local search for the integrated balancing objective.
///
/// Optimizes the paper's MILP objective lexicographically — minimize load
/// distance, then the sum of squared deviations (a smooth stand-in for
/// maximizing du + dl tightness) — subject to the migration budget. Drain
/// moves off nodes marked for removal fall out of that minimization
/// (Lemma 2: the optimum only exists with B empty), interleaved with
/// urgent overload fixes; a final completion pass force-drains whatever
/// residual the greedy leaves behind with the unspent budget, because a
/// nearly-empty marked set is a local optimum the greedy cannot escape
/// (moving the last items necessarily overshoots the mean). Items are
/// atomic; pinned items are placed first and never moved (ALBIC's
/// collocation constraints).
class LocalSearchSolver {
 public:
  /// \brief Solves the placement problem. `snapshot` supplies the cluster,
  /// the current assignment q and per-group migration costs.
  static Result<LocalSearchSolution> Solve(
      const engine::SystemSnapshot& snapshot,
      const std::vector<BalanceItem>& items,
      const RebalanceConstraints& constraints,
      const LocalSearchOptions& options);
};

}  // namespace albic::balance
