"""Finite models shared by the tests: the two-state fixture, random table and label models."""

import numpy as np

from tempersmc.fk_core import FKModel, KernelFamily
from tempersmc.finite import (
    drift_inputs_for_chain,
    table_model,
    tempered_chain_model,
    tempered_stationary,
)
from tempersmc.tempering import linear_schedule

# Two-state fixture: weights (1, 0.35), linear schedule from 0.7, lazy flip
# kernels.  Small enough to hand-check, mixing slow enough that
# initialization bias stays far above float noise over the test horizons.
FIXTURE_LOG_WEIGHTS = (0.0, float(np.log(0.35)))
FIXTURE_GAMMA_FLOOR = 0.7
FIXTURE_MOVE_PROB = 0.3
FIXTURE_BETA = 0.5
FIXTURE_LAM = 0.6


def two_state_fixture(n):
    """The fixture chain at horizon n, started from its floor-tempered law."""
    return tempered_chain_model(
        FIXTURE_LOG_WEIGHTS,
        linear_schedule(FIXTURE_GAMMA_FLOOR).ladder(n),
        move_prob=FIXTURE_MOVE_PROB,
        init=tempered_stationary(FIXTURE_LOG_WEIGHTS, FIXTURE_GAMMA_FLOOR),
    )


def fixture_drift_inputs():
    return drift_inputs_for_chain(
        FIXTURE_LOG_WEIGHTS,
        gamma_floor=FIXTURE_GAMMA_FLOOR,
        move_prob=FIXTURE_MOVE_PROB,
        beta=FIXTURE_BETA,
        lam=FIXTURE_LAM,
    )


def random_finite_model(rng, m=5, n=10):
    """Random strictly positive model for identity and property tests."""
    matrices = rng.dirichlet(np.ones(m), size=(n, m))
    # keep rows comfortably inside the simplex to avoid zero entries
    matrices = 0.9 * matrices + 0.1 / m
    table = rng.uniform(np.log(0.2), np.log(2.0), size=(n, m))
    mu = rng.dirichlet(np.ones(m))
    return table_model(list(matrices), table, mu)


def label_model(model):
    """The finite ``model`` as a per-particle model: N label states, not a count vector.

    ``finite`` is None, so the particle engine steps a states batch, as it
    does on a continuous space.  The test kernel and initial sampler draw
    one uniform per particle, each row of a batch from its own generator,
    and return the number of cumulative weights below it, among all but
    the last, of the particle's row (or of mu).
    """
    cum_rows = np.cumsum(model.finite.kernels, axis=2)[:, :, :-1]
    cum_mu = np.cumsum(model.finite.mu)[:-1]

    def search(u, cum):
        return (u[..., None] > cum).sum(axis=-1)

    def sample_batch(k, xs, stats, rng):
        new = search(np.array([g.random(xs.shape[1]) for g in rng]), cum_rows[k - 1][xs])
        return new, new

    return FKModel(horizon=model.horizon, kernels=KernelFamily(sample_batch=sample_batch),
                   potentials=model.potentials,
                   initial=lambda size, rng: search(rng.random(size), cum_mu))
