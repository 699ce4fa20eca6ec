"""The random walk Metropolis kernel targeting the tempered family, and its increment.

A proposal increment is a sampler ``q(size, rng)`` of (size, dim) draws.
It must be symmetric about the origin: that is exactly what makes the
correction-free acceptance ratio leave the tempered law invariant.  The
one shipped increment, the centred Gaussian, is symmetric by construction.
"""

import math

import numpy as np

from .fk_core import KernelFamily

__all__ = ["gaussian_increment", "rwm_step_batch", "rwm_kernel_family"]


def gaussian_increment(dim, scale):
    """Sampler ``q(size, rng)`` of (size, dim) centred Gaussian increments."""
    if not 0 < scale < math.inf:
        raise ValueError("scale must be finite and positive")
    return lambda size, rng: rng.standard_normal((size, dim)) * scale


def rwm_step_batch(fam, gamma, q, xs, cur, rng):
    """Advance a batch of rows of chains one Metropolis step at inverse temperature gamma.

    ``xs`` holds R rows of N states, shape (R, N, d), ``cur`` their (R, N)
    log target densities, and ``rng`` one generator per row; only the
    proposals are evaluated.  Returns the new states and their log
    densities.  Draw layout per row r: its N proposals ``q(N, rng[r])``
    first, then one acceptance uniform per chain.  The proposal, density
    and accept act on the whole batch at once.  Proposals with non-finite
    log density are rejected.
    """
    xs = np.asarray(xs, dtype=float)
    moved, u = np.empty(xs.shape), np.empty(xs.shape[:2])
    # a proposal far out overflows to log density -inf and is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        for g, x, row, u_row in zip(rng, xs, moved, u):
            np.add(x, q(len(x), g), out=row)
            g.random(out=u_row)
        prop = np.asarray(fam.target.log_unnorm(moved), dtype=float)
        log_ratio = gamma * (prop - cur)
    accept = np.isfinite(prop) & (np.log(u) < log_ratio)
    return np.where(accept[..., None], moved, xs), np.where(accept, prop, cur)


def rwm_kernel_family(fam, gammas, q):
    """Kernels along a checked ladder: step k targets the tempered law at ``gammas[k]``."""
    return KernelFamily(
        sample_batch=lambda k, xs, ell, rng: rwm_step_batch(fam, gammas[k], q, xs, ell, rng),
    )

