"""Tempered sequential Monte Carlo with an exact finite-state oracle.

The package pairs a multinomial-resampling particle sampler for tempered
model flows with exact matrix computations on finite state spaces, plus an
experiment harness measuring initialization-bias forgetting, 1/sqrt(N)
error scaling, and uniform-in-horizon error.
"""

from .fk_core import (
    DriftSpec,
    FiniteArrays,
    FKModel,
    KernelFamily,
    PotentialFamily,
)
from .particles import Ensemble, run_sampler
from .streams import stream
from .tempering import TemperedFamily, TemperingSchedule, LogTarget

__version__ = "0.1.0"

__all__ = [
    "DriftSpec",
    "FiniteArrays",
    "FKModel",
    "KernelFamily",
    "PotentialFamily",
    "Ensemble",
    "run_sampler",
    "stream",
    "TemperedFamily",
    "TemperingSchedule",
    "LogTarget",
    "__version__",
]
