"""Simulated annealing engines and the two solver frontends.

* :mod:`repro.annealing.sa` -- a generic QUBO simulated annealer.
* :mod:`repro.annealing.hycim` -- the HyCiM hybrid solver: inequality filter
  -> CiM crossbar -> SA logic (paper Fig. 3 / Fig. 6(b)).
* :mod:`repro.annealing.dqubo_solver` -- the D-QUBO baseline annealer that
  embeds constraints as penalties with auxiliary variables.
"""

from repro.annealing.result import SolveResult
from repro.annealing.sa import SimulatedAnnealer
from repro.annealing.hycim import HyCiMSolver
from repro.annealing.dqubo_solver import DQUBOAnnealer

__all__ = [
    "SolveResult",
    "SimulatedAnnealer",
    "HyCiMSolver",
    "DQUBOAnnealer",
]
