"""Core model objects: indexed kernel and potential families over a state space.

A model couples, for one fixed horizon ``n``, a family of Markov kernels
``M[k]`` (k = 1..n), a family of strictly positive weight functions
``G[k]`` (k = 0..n-1) bounded above by a known constant, and an initial
distribution.  A step index is a plain ``int`` k; the horizon lives on the
model, and each function taking k checks it against its own range.  States
are opaque: finite spaces use integer labels, vector spaces use float
arrays with the leading axis indexing a batch of states.  Kernels and
potentials are always evaluated on such a batch.

All potential arithmetic is carried out in the log domain; the family's
upper bound is supplied as a log constant by the model builder.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PotentialFamily",
    "KernelFamily",
    "InitialDistribution",
    "FKModel",
    "DriftSpec",
    "normalized_log_potential",
    "u_function",
]


@dataclass(frozen=True)
class PotentialFamily:
    """Log weight functions ``log_g(k, x)`` for k = 0..horizon-1.

    ``log_g`` must be vectorized over a batch of states.  ``log_g_max`` is
    the log of a constant bounding every ``G[k]`` above; the normalized
    family ``G[k] / exp(log_g_max)`` then takes values in (0, 1].
    """

    horizon: int
    log_g: Callable
    log_g_max: float

    def __post_init__(self):
        if not np.isfinite(self.log_g_max):
            raise ValueError("log_g_max must be finite")


@dataclass(frozen=True)
class KernelFamily:
    """Markov kernels ``M[k]`` for k = 1..horizon.

    ``sample_batch(k, xs, rng)`` advances a whole batch of states one
    transition of ``M[k]`` with a fixed draw layout; it is the only sampler
    the particle engine calls.  ``matrix(k)``, when provided, returns the
    exact transition matrix (finite spaces only).
    """

    horizon: int
    sample_batch: Callable
    matrix: Optional[Callable] = None


@dataclass(frozen=True)
class InitialDistribution:
    """Sampler for the initial law, plus its exact weight vector when finite.

    ``sample(size, rng)`` returns a batch of ``size`` independent draws.
    """

    sample: Callable
    weights: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FKModel:
    """One model instance: horizon, kernels, potentials, initial law.

    ``n_states`` is set for finite state spaces, in which case the kernel
    family must expose exact matrices.
    """

    horizon: int
    kernels: KernelFamily
    potentials: PotentialFamily
    initial: InitialDistribution
    n_states: Optional[int] = None

    def __post_init__(self):
        if self.kernels.horizon != self.horizon or self.potentials.horizon != self.horizon:
            raise ValueError("kernel/potential families do not match the model horizon")
        if self.n_states is not None and self.kernels.matrix is None:
            raise ValueError("finite models require exact kernel matrices")

    @property
    def is_finite(self):
        return self.n_states is not None


@dataclass(frozen=True)
class DriftSpec:
    """Geometric drift data: function V >= 1, rate, level-set cut and offset.

    ``v`` is either a vector over states (finite spaces) or a callable
    vectorized over a batch of states.  The small set is the sub-level set
    ``{V <= level_d}``.  ``lam``, ``level_d`` and ``b_d`` may be left unset
    when only the function itself is needed (e.g. for monitoring).
    """

    v: object
    lam: Optional[float] = None
    level_d: Optional[float] = None
    b_d: Optional[float] = None

    def values(self, states):
        if callable(self.v):
            return np.asarray(self.v(states), dtype=float)
        return np.asarray(self.v, dtype=float)[states]

    def vector(self, n_states):
        """V as an exact vector over an enumerated finite space."""
        if callable(self.v):
            return np.asarray(self.v(np.arange(n_states)), dtype=float)
        vec = np.asarray(self.v, dtype=float)
        if vec.shape != (n_states,):
            raise ValueError(f"drift vector has shape {vec.shape}, expected ({n_states},)")
        return vec


def normalized_log_potential(pf, k, x):
    """log of G[k](x) divided by its family upper bound; always <= 0."""
    if not 0 <= k <= pf.horizon - 1:
        raise ValueError(f"potential index k={k} outside [0, {pf.horizon - 1}]")
    return pf.log_g(k, x) - pf.log_g_max


def u_function(pf, k, x):
    """Per-step energy ``-n * normalized_log_potential``; always >= 0."""
    return -pf.horizon * normalized_log_potential(pf, k, x)
