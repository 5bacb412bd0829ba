"""Stochastic extinction-colonisation dynamics on finite networks.

The package provides random connected network generators (`netgen`), the
two-phase occupancy kernel with crude Monte Carlo (`dynamics`), exact
transition-matrix analysis of the 2^n chain (`exact`), mean-field
recursions with persistence thresholds (`meanfield`), rare-event
estimators (`rareevent`), a factorial experiment harness (`experiment`)
and a command line front end (`cli`).  Each public name lives in its
module and is imported from there, e.g. ``from secnet.dynamics import
Params``.
"""

__version__ = "0.1.0"
