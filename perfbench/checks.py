"""Output checks and the benchmark's own objective reference.

The checks decide which trials count as failed; the reference is the
denominator of ``objective_ratio_pct``.  The reference is computed here, in
plain NumPy from the instance data alone, so no change to ``repro`` can
move it (``repro.exact`` has no MD-QKP reference anyway).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def trial_errors(problem, model, result, proposals: int,
                 exact: bool) -> List[str]:
    """Everything wrong with one trial's result (empty when it passes).

    * the reported objective must equal the objective recomputed from the
      best configuration (0 when the solver reports it infeasible);
    * the proposal counters must add up to the trial's proposal budget;
    * on ``exact`` workloads (ideal devices or software mode) the reported
      feasibility must equal exact feasibility and ``best_energy`` the
      exact Eq. (6) energy -- bit-exact on these integer instances.  With
      non-ideal chips a filter/exact disagreement is modelled behaviour and
      shows up in ``feasible_rate`` instead.
    """
    errors = []
    best = np.asarray(result.best_configuration, dtype=float)
    if best.shape != (problem.num_variables,) or not np.all(
            (best == 0) | (best == 1)):
        return ["best configuration is not a binary vector of the right length"]
    expected = problem.objective(best) if result.feasible else 0.0
    if result.best_objective != expected:
        errors.append(f"objective {result.best_objective} != recomputed "
                      f"{expected}")
    counted = result.num_feasible_evaluations + result.num_infeasible_skipped
    if counted != proposals or result.num_iterations != proposals:
        errors.append(f"counters cover {counted} of {proposals} proposals")
    if exact:
        if bool(result.feasible) != bool(problem.is_feasible(best)):
            errors.append("reported feasibility differs from exact "
                          "feasibility")
        energy = model.energy(best)
        if result.best_energy != energy:
            errors.append(f"best_energy {result.best_energy} != exact "
                          f"{energy}")
    return errors


def fingerprint(results: Sequence) -> tuple:
    """What must repeat exactly when the same call runs again."""
    return tuple((r.best_configuration.tobytes(), r.best_energy,
                  r.best_objective, r.feasible, r.num_feasible_evaluations,
                  r.num_infeasible_skipped, r.num_accepted_moves)
                 for r in results)


def reference_objective(profits: np.ndarray, weights: np.ndarray,
                        capacities: np.ndarray) -> float:
    """Greedy fill plus add / swap local search for (MD-)QKP.

    ``profits`` is the symmetric profit matrix (diagonal = item profits,
    off-diagonal pairs counted once), ``weights`` the ``(m, n)`` resource
    matrix and ``capacities`` its ``m`` bounds.  Profits are non-negative,
    so dropping an item never helps on its own: the search adds any item
    that still fits and otherwise takes the best improving swap, until
    neither exists.
    """
    profits = np.asarray(profits, dtype=float)
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    capacities = np.atleast_1d(np.asarray(capacities, dtype=float))
    n = profits.shape[0]
    pairwise = profits - np.diag(np.diag(profits))
    # gain[i]: objective change of adding item i (or, for a selected item,
    # its current contribution).
    gain = np.diag(profits).copy()
    selected = np.zeros(n, dtype=bool)
    load = np.zeros(weights.shape[0])
    scarcity = (weights / capacities[:, None]).sum(axis=0)

    def toggle(item: int) -> None:
        sign = -1.0 if selected[item] else 1.0
        selected[item] = not selected[item]
        gain[:] += sign * pairwise[item]
        load[:] += sign * weights[:, item]

    while True:
        fits = ~selected & np.all(load[:, None] + weights <= capacities[:, None],
                                  axis=0)
        if fits.any():
            candidates = np.flatnonzero(fits)
            toggle(int(candidates[np.argmax(gain[candidates]
                                            / scarcity[candidates])]))
            continue
        inside, outside = np.flatnonzero(selected), np.flatnonzero(~selected)
        if not inside.size or not outside.size:
            break
        delta = (gain[outside][None, :] - gain[inside][:, None]
                 - pairwise[np.ix_(inside, outside)])
        swapped_load = (load[:, None, None] - weights[:, inside, None]
                        + weights[:, None, outside])
        delta[~np.all(swapped_load <= capacities[:, None, None], axis=0)] = 0.0
        best = np.unravel_index(np.argmax(delta), delta.shape)
        if delta[best] <= 1e-9:
            break
        toggle(int(inside[best[0]]))
        toggle(int(outside[best[1]]))
    x = selected.astype(float)
    return float(np.diag(profits) @ x + 0.5 * x @ pairwise @ x)
