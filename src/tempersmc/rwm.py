"""The random walk Metropolis kernel targeting the tempered family.

A proposal adds a centred Gaussian increment of a fixed ``scale`` to each
state.  It is symmetric about the origin: that is exactly what makes the
correction-free acceptance ratio leave the tempered law invariant.
"""

import numpy as np

from .fk_core import KernelFamily

__all__ = ["rwm_step_batch", "rwm_kernel_family"]


def rwm_step_batch(fam, gamma, scale, xs, cur, rng):
    """Advance a batch of rows of chains one Metropolis step at inverse temperature gamma.

    ``xs`` holds R rows of N states, shape (R, N, d), ``cur`` their (R, N)
    log target densities, and ``rng`` one generator per row; only the
    proposals are evaluated.  Returns the new states and their log
    densities.  Draw layout per row r: its N·d standard normals, shape
    (N, d), first, then one acceptance uniform per chain; a proposal is
    the state plus ``scale`` times its normals.  The proposal, density and
    accept act on the whole batch at once.  Proposals with non-finite log
    density are rejected.
    """
    xs = np.asarray(xs, dtype=float)
    moved, u = np.empty(xs.shape), np.empty(xs.shape[:2])
    # a proposal far out overflows to log density -inf and is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        for g, x, row, u_row in zip(rng, xs, moved, u):
            np.add(x, g.standard_normal(x.shape) * scale, out=row)
            g.random(out=u_row)
        prop = np.asarray(fam.target.log_unnorm(moved), dtype=float)
        log_ratio = gamma * (prop - cur)
    accept = np.isfinite(prop) & (np.log(u) < log_ratio)
    return np.where(accept[..., None], moved, xs), np.where(accept, prop, cur)


def rwm_kernel_family(fam, gammas, scale):
    """Kernels along a checked ladder: step k targets the tempered law at ``gammas[k]``."""
    return KernelFamily(
        sample_batch=lambda k, xs, ell, rng: rwm_step_batch(fam, gammas[k], scale, xs, ell, rng),
    )
