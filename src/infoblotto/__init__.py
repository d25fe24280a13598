"""Solvers and verifiers for Colonel Blotto / General Lotto games in which
one player observes the realized battlefield valuations and the other knows
only the prior.

Public names resolve on first access (PEP 562 ``__getattr__``), so
``import infoblotto`` loads no submodule and each command of ``infoblotto``
loads only the modules it runs."""

import sys

__version__ = "0.1.0"

# each public name and the submodule that defines it; a submodule is its own
_HOME = {
    **dict.fromkeys(("InvalidDistributionError", "PiecewiseCdf"), "distributions"),
    **dict.fromkeys(
        ("OutOfRegimeError", "Prior", "StrategyProfile", "UnsupportedCaseError",
         "ValuationMatrix", "battlefield_payoff", "ex_ante_payoff", "expected_budget",
         "interim_payoffs"),
        "games",
    ),
    **{name: name for name in ("blotto2", "lotto3", "oracle")},
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = f"{__name__}.{_HOME[name]}"
    __import__(home)  # as an import statement does, so -X importtime lists it
    return sys.modules[home] if _HOME[name] == name else getattr(sys.modules[home], name)


def __dir__():
    return sorted({*globals(), *__all__})
