"""Exhaustive search over all binary configurations of a small COP.

Used as ground truth in unit tests and for the small chip-demo problems
(Fig. 7(e,f)).  Refuses to run above 22 variables.  One enumerator walks
the ``2^n`` configurations in chunks of rows, judged by the problem's
``is_feasible_batch`` and scored by its ``objective_batch`` (which the
conformance contracts make exact row-wise views of ``is_feasible`` and
``objective``); :func:`solve_brute_force`, :func:`enumerate_feasible` and
``CombinatorialProblem.brute_force_best`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.qubo import binary_configurations
from repro.problems.base import CombinatorialProblem


@dataclass(frozen=True)
class BruteForceResult:
    """Result of an exhaustive search.

    Attributes
    ----------
    best_configuration:
        The optimal feasible binary vector.
    best_value:
        Its native objective value.
    num_feasible:
        How many of the ``2^n`` configurations were feasible.
    num_evaluated:
        Total configurations enumerated (``2^n``).
    """

    best_configuration: np.ndarray
    best_value: float
    num_feasible: int
    num_evaluated: int


def _feasible_chunks(problem: CombinatorialProblem
                     ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every feasible configuration with its objective value, as
    ``(rows, values)`` chunks in the order of
    :func:`~repro.core.qubo.binary_configurations`."""
    for batch in binary_configurations(problem.num_variables):
        rows = batch[problem.is_feasible_batch(batch)]
        if rows.shape[0]:
            yield rows, problem.objective_batch(rows)


def solve_brute_force(problem: CombinatorialProblem,
                      max_variables: int = 22) -> BruteForceResult:
    """Enumerate every configuration of ``problem`` and return the best feasible one.

    Parameters
    ----------
    problem:
        Any COP implementing the common interface.
    max_variables:
        Safety limit; raises ``ValueError`` when exceeded.
    """
    n = problem.num_variables
    if n > max_variables:
        raise ValueError(f"brute force limited to {max_variables} variables, problem has {n}")
    best_value: Optional[float] = None
    best_x = np.zeros(n)
    num_feasible = 0
    maximize = problem.is_maximization
    for rows, values in _feasible_chunks(problem):
        num_feasible += rows.shape[0]
        # The first best row of the chunk, kept only when strictly better:
        # the first best configuration in enumeration order wins.
        k = int(np.argmax(values) if maximize else np.argmin(values))
        value = float(values[k])
        if best_value is None or (value > best_value if maximize else value < best_value):
            best_value = value
            best_x = rows[k].copy()
    if best_value is None:
        raise RuntimeError("problem has no feasible configuration")
    return BruteForceResult(
        best_configuration=best_x,
        best_value=float(best_value),
        num_feasible=num_feasible,
        num_evaluated=1 << n,
    )


def enumerate_feasible(problem: CombinatorialProblem,
                       max_variables: int = 22) -> Tuple[np.ndarray, np.ndarray]:
    """Return all feasible configurations and their objective values.

    Useful for validating the inequality filter against ground truth on toy
    instances (Fig. 5(f) reproduces the 8-configuration example this way).
    """
    n = problem.num_variables
    if n > max_variables:
        raise ValueError(f"enumeration limited to {max_variables} variables, problem has {n}")
    chunks = list(_feasible_chunks(problem))
    if not chunks:
        return np.array([]), np.array([])
    return (np.concatenate([rows for rows, _ in chunks]),
            np.concatenate([values for _, values in chunks]))
