"""Core model objects: indexed kernel and potential families over a state space.

A model couples, for one fixed horizon ``n``, a family of Markov kernels
``M[k]`` (k = 1..n), a family of strictly positive weight functions
``G[k]`` (k = 0..n-1) bounded above by a known constant, and the initial
law: a sampler, or a finite model's initial vector.  A step index is a
plain ``int`` k; the model's ``horizon`` is the one horizon, and each
function taking k checks it against its own range.  States are opaque:
finite spaces use integer labels, vector spaces use float arrays with the
leading axes indexing a batch of states.  The initial sampler draws one
replicate's N states; the kernels advance the populations of R replicates
at once, as the rows of a batch (see ``KernelFamily``), and the
potentials act state by state on any such batch.

The potentials read each state through a per-particle statistic, which the
particle engine carries beside the state: the family's ``statistic(xs)`` is
evaluated once per particle at initialization, and after that each kernel
returns the statistic of every new state beside it.  For tempered targets
the statistic is the log target density, so the reweight, the Metropolis
accept and the drift monitor share one density evaluation per particle and
step; on finite spaces it is the state label itself.  A monitored drift
function V is a plain callable over a batch of those statistics.

A finite model carries its exact arrays, one ``FiniteArrays`` record: the
(n, m, m) kernel stack, the (n, m) log-weight table and the initial
vector mu.  Its kernel sampler and potentials are closures over those
same arrays, and its initial law is mu itself, with no sampler; the exact
oracle reads the record alone, and with it a ``DriftSpec``, the certified
drift inputs over the same m states.  The particle engine runs a finite
model as (R, m) batches of count vectors over its m states, so its kernel
sampler returns the counts of N particles per row, not N states.

All potential arithmetic is carried out in the log domain; the family's
upper bound is supplied as a log constant by the model builder.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PotentialFamily",
    "KernelFamily",
    "FiniteArrays",
    "FKModel",
    "DriftSpec",
]


@dataclass(frozen=True)
class PotentialFamily:
    """Log weight functions ``log_g(k, s)`` for k = 0..n-1.

    ``statistic(xs)`` maps a batch of states to their per-particle
    statistics, and ``log_g(k, s)`` is log G[k] of the states with
    statistics ``s``, vectorized over the batch.  ``log_g_max`` is the log
    of a constant bounding every ``G[k]`` above; the normalized family
    ``G[k] / exp(log_g_max)`` then takes values in (0, 1].
    """

    log_g: Callable
    log_g_max: float
    statistic: Callable

    def __post_init__(self):
        if not np.isfinite(self.log_g_max):
            raise ValueError("log_g_max must be finite")


@dataclass(frozen=True)
class KernelFamily:
    """Markov kernels ``M[k]`` for k = 1..n.

    ``sample_batch(k, batch, arg, rng)`` advances a batch of R rows, each
    row one replicate's population, one transition of ``M[k]`` with a
    fixed draw layout, and returns the next R rows.  It is the only kernel
    sampler the particle engine calls, in one of two forms:

    - states: ``sample_batch(k, xs, stats, rng)`` takes the (R, N, ...)
      states ``xs``, their (R, N) statistics (see ``PotentialFamily``) and
      one generator per row, and returns the new states with their
      statistics; row r draws from ``rng[r]`` alone.
    - counts, on a finite model: ``sample_batch(k, w, size, rng)`` takes
      the (R, m) nonnegative weights of a count batch and one generator,
      and returns the next (R, m) counts, row i holding ``size``
      particles, each drawn independently from the state law
      normalize(w[i]) and moved one transition of ``M[k]``, that is, a
      draw of Multinomial(size, normalize(w[i] M[k])) by ``rng``, all rows
      in one call.
    """

    sample_batch: Callable


@dataclass(frozen=True)
class FiniteArrays:
    """The exact arrays of a finite model with n steps and m states.

    ``kernels`` is the (n, m, m) stack whose row k-1 is M[k], ``log_g`` the
    (n, m) table whose row k is log G[k], and ``mu`` the initial
    probability vector.  ``finite.table_model`` checks them once, where it
    builds the record.
    """

    kernels: np.ndarray
    log_g: np.ndarray
    mu: np.ndarray


@dataclass(frozen=True)
class FKModel:
    """One model instance: horizon, kernels, potentials and one initial law.

    On a finite model ``finite`` holds the exact arrays, whose ``mu`` is
    the initial law, and ``initial`` is None.  On any other space
    ``finite`` is None and ``initial(size, rng)`` returns a batch of
    ``size`` independent draws from the initial law.
    """

    horizon: int
    kernels: KernelFamily
    potentials: PotentialFamily
    initial: Optional[Callable] = None
    finite: Optional[FiniteArrays] = None

    def __post_init__(self):
        if (self.initial is None) == (self.finite is None):
            raise ValueError("a model needs one initial law: an initial sampler or finite arrays")
        if self.finite is not None and len(self.finite.kernels) != self.horizon:
            raise ValueError("finite arrays do not match the model horizon")

    @property
    def is_finite(self):
        return self.finite is not None


@dataclass(frozen=True)
class DriftSpec:
    """Certified geometric drift data on a finite space, as the oracle audits it.

    ``v`` is the drift function V >= 1 as a float vector over the m states,
    ``lam`` the drift rate, ``level_d`` the cut of the small set, the
    sub-level set ``{V <= level_d}``, and ``b_d`` the drift offset.
    """

    v: np.ndarray
    lam: float
    level_d: float
    b_d: float
