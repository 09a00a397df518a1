"""Sherrington-Kirkpatrick (SK) spin glass (Table 1 "Spin Glass" row).

The SK model is a fully-connected Ising model with Gaussian couplings and no
external fields:

    H(sigma) = sum_{i<j} J_ij sigma_i sigma_j,   J_ij ~ N(0, 1/N)

It is the canonical unconstrained hard instance used to stress Ising
machines; here it exercises the plain-QUBO path of the annealers (no
inequality filter involved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.ising import IsingModel
from repro.core.qubo import QUBOModel
from repro.problems.base import CombinatorialProblem


@dataclass
class SherringtonKirkpatrickProblem(CombinatorialProblem):
    """SK spin glass defined by a symmetric coupling matrix with zero diagonal."""

    couplings: np.ndarray
    name: str = "sk"

    problem_class = "Spin Glass"
    is_maximization = False

    def __post_init__(self) -> None:
        j = np.asarray(self.couplings, dtype=float)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError(f"coupling matrix must be square, got {j.shape}")
        if not np.allclose(j, j.T):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(j) != 0):
            raise ValueError("coupling matrix diagonal must be zero")
        self.couplings = j
        self._ising = self.to_ising()

    @property
    def num_spins(self) -> int:
        """Number of spins ``N``."""
        return self.couplings.shape[0]

    @property
    def num_variables(self) -> int:
        return self.num_spins

    def spin_energy(self, sigma: Iterable[float]) -> float:
        """Hamiltonian value for a +/-1 spin vector (on the Ising model
        built once per instance)."""
        return self._ising.energy(sigma)

    def objective(self, x: Iterable[float]) -> float:
        """Hamiltonian value with binary encoding ``sigma = 1 - 2x``."""
        vec = self._validate(x)
        sigma = 1.0 - 2.0 * vec
        return self.spin_energy(sigma)

    def linear_feasibility_constraints(self) -> tuple:
        """Unconstrained: the empty conjunction."""
        return ()

    def to_ising(self) -> IsingModel:
        """The underlying Ising model (zero external fields)."""
        return IsingModel(couplings=np.triu(self.couplings, k=1),
                          fields=np.zeros(self.num_spins))

    def to_qubo(self) -> QUBOModel:
        """Exact QUBO via the Ising-to-QUBO variable change."""
        return self._ising.to_qubo()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SherringtonKirkpatrickProblem(name={self.name!r}, N={self.num_spins})"
