"""The Eq. 1 ILP: an independent oracle for the allocation solver.

A generic modelling layer, a branch-and-bound solver on top of
``scipy.optimize.linprog`` (the Gurobi role in the paper), and
:func:`solve_ilp`, the literal Eq. 1 formulation with binary placement
variables.  The runtime solves Eq. 1 with the enumeration solver in
:mod:`repro.core.solver`; the tests check it against this oracle, which is
why scipy is a development dependency only.
"""

from .allocation import solve_ilp
from .branch_and_bound import BranchAndBoundSolver
from .model import Constraint, IlpProblem, Solution, SolveStatus, Variable

__all__ = [
    "BranchAndBoundSolver",
    "Constraint",
    "IlpProblem",
    "Solution",
    "SolveStatus",
    "Variable",
    "solve_ilp",
]
