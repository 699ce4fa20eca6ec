"""Tempered sequential Monte Carlo with an exact finite-state oracle.

The package pairs a multinomial-resampling particle sampler for tempered
model flows with exact matrix computations on finite state spaces, plus an
experiment harness measuring initialization-bias forgetting, 1/sqrt(N)
error scaling, and uniform-in-horizon error.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
