"""Solvers and verifiers for Colonel Blotto / General Lotto games in which
one player observes the realized battlefield valuations and the other knows
only the prior."""

from . import blotto2, lotto3, oracle
from .distributions import InvalidDistributionError, PiecewiseCdf
from .games import (
    OutOfRegimeError,
    Prior,
    StrategyProfile,
    UnsupportedCaseError,
    ValuationMatrix,
    battlefield_payoff,
    ex_ante_payoff,
    expected_budget,
    interim_payoff,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidDistributionError",
    "OutOfRegimeError",
    "PiecewiseCdf",
    "Prior",
    "StrategyProfile",
    "UnsupportedCaseError",
    "ValuationMatrix",
    "battlefield_payoff",
    "blotto2",
    "ex_ante_payoff",
    "expected_budget",
    "interim_payoff",
    "lotto3",
    "oracle",
]
