import json
import math

import numpy as np
import pytest
import scipy.stats

from tempersmc import streams
from tempersmc.config import ConfigError, parse_config
from tempersmc.fk_core import DriftSpec
from tempersmc.rwm import (
    IncrementDistribution,
    drift_probe,
    gaussian_increment,
    rwm_kernel_family,
    rwm_step_batch,
    uniform_ball_increment,
)
from tempersmc.tempering import (
    TemperedFamily,
    drift_function,
    gaussian_mixture_target,
    gaussian_target,
    linear_schedule,
)


def std_family(floor=0.7):
    return TemperedFamily(gaussian_target([0.0], [1.0]), linear_schedule(floor))


def step(fam, gamma, q, xs, rng):
    """One Metropolis step from ``xs``, evaluating their log density first; the new states."""
    return rwm_step_batch(fam, gamma, q, xs, fam.target.log_unnorm(xs), rng)[0]


# ------------------------------------------------------------- increments

def test_gaussian_increment_profile_and_symmetry():
    q = gaussian_increment(2, scale=1.5)
    y = np.array([[0.3, -0.4], [2.0, 1.0]])
    np.testing.assert_allclose(q.log_density(y), q.log_density(-y))
    # profile is the density at the shell radius, strictly positive
    for r in (0.5, 2.0, 10.0):
        assert q.positivity_profile(r) > 0
        assert q.positivity_profile(r) == pytest.approx(
            float(np.exp(q.log_density(np.array([[r, 0.0]]))[0]))
        )


def test_uniform_ball_increment():
    q = uniform_ball_increment(2, radius=1.5)
    rng = streams.stream(1, 0)
    draws = q.sample(10_000, rng)
    assert np.all(np.linalg.norm(draws, axis=1) <= 1.5)
    assert q.positivity_profile(1.0) > 0
    assert q.positivity_profile(2.0) == 0.0
    inside = np.array([[0.5, 0.5]])
    outside = np.array([[2.0, 0.0]])
    assert np.isfinite(q.log_density(inside))
    assert q.log_density(outside) == -np.inf


def test_asymmetric_increment_rejected():
    with pytest.raises(ValueError):
        IncrementDistribution(
            dim=1,
            sample=lambda size, rng: rng.standard_normal((size, 1)) + 0.5,
            log_density=lambda y: -0.5 * np.sum((np.asarray(y) - 0.5) ** 2, axis=-1),
            positivity_profile=lambda r: 0.1,
        )


# ------------------------------------------------------------- single steps

def test_flat_target_always_accepts():
    flat = TemperedFamily(
        gaussian_target([0.0], [1e6]), linear_schedule(0.7)
    )  # nearly flat over the probed range
    q = gaussian_increment(1, 1.0)
    x = np.zeros((256, 1))
    moved = step(flat, 1.0, q, x, streams.stream(2, 0))
    assert np.all(moved != 0.0)  # ratio ~ 1 => accept almost surely


def test_zero_proposal_keeps_state():
    null_q = IncrementDistribution(
        dim=1,
        sample=lambda size, rng: np.zeros((size, 1)),
        log_density=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        positivity_profile=lambda r: 1.0,
    )
    fam = std_family()
    x = np.array([[1.3], [-0.4]])
    out = step(fam, 0.9, null_q, x, streams.stream(3, 0))
    np.testing.assert_array_equal(out, x)


def test_gamma_out_of_range():
    # the drift probe's gamma comes only from config; the parser enforces [floor, 1]
    for gamma in (0.5, 3.0):
        text = json.dumps({"experiment": "drift-check", "seed": 1, "radii": [2], "gamma": gamma,
                           "model": {"kind": "gaussian", "target": {"name": "gaussian"},
                                     "schedule": {"name": "linear", "gamma_floor": 0.7}}})
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.path == "gamma"


def test_rejection_returns_exact_state():
    # steep target, huge proposals: rejected moves must return x bitwise
    fam = TemperedFamily(gaussian_target([0.0], [0.05]), linear_schedule(0.7))
    q = gaussian_increment(1, 50.0)
    x = np.full((512, 1), 0.012345678901234567)
    out = step(fam, 1.0, q, x, streams.stream(5, 0))
    stayed = out[:, 0] == x[:, 0]
    assert stayed.sum() > 400
    assert np.all((out == x) | (out != x))  # moved entries are the proposals
    np.testing.assert_array_equal(out[stayed], x[stayed])


def test_non_finite_proposal_treated_as_rejection():
    target = gaussian_target([0.0], [1.0])
    spiked = TemperedFamily(
        target=type(target)(
            dim=1,
            log_unnorm=lambda x: np.where(
                np.asarray(x)[..., 0] > 1.0, -np.inf, target.log_unnorm(x)
            ),
            sup_log_unnorm=0.0,
        ),
        schedule=linear_schedule(0.7),
    )
    q = gaussian_increment(1, 5.0)
    x = np.zeros((2048, 1))
    out = step(spiked, 1.0, q, x, streams.stream(6, 0))
    assert np.all(out[:, 0] <= 1.0)


def _spiked(target):
    """``target`` with log density -inf wherever the first coordinate exceeds 1."""
    return type(target)(
        dim=target.dim,
        log_unnorm=lambda x: np.where(np.asarray(x)[..., 0] > 1.0, -np.inf, target.log_unnorm(x)),
        sup_log_unnorm=target.sup_log_unnorm,
    )


_TARGETS_2D = {
    "gaussian": lambda: gaussian_target([0.0, 1.0], [1.0, 0.5]),
    "mixture": lambda: gaussian_mixture_target([[-1.0, 0.0], [2.0, 1.0]],
                                               [[0.7, 1.0], [1.2, 0.4]], [0.4, 0.6]),
}
_INCREMENTS_2D = {"gaussian": lambda: gaussian_increment(2, 1.5),
                  "uniform-ball": lambda: uniform_ball_increment(2, 2.0)}


@pytest.mark.parametrize("spiked", [False, True], ids=["finite", "spiked"])
@pytest.mark.parametrize("increment", sorted(_INCREMENTS_2D))
@pytest.mark.parametrize("target", sorted(_TARGETS_2D))
def test_step_returns_the_log_density_of_each_new_state(target, increment, spiked):
    # accepted, rejected and -inf proposals, and -inf current states when spiked
    base = _TARGETS_2D[target]()
    fam = TemperedFamily(_spiked(base) if spiked else base, linear_schedule(0.7))
    q = _INCREMENTS_2D[increment]()
    xs = 1.5 * streams.stream(14, 0).standard_normal((2000, 2))
    ell = fam.target.log_unnorm(xs)
    new, new_ell = rwm_step_batch(fam, 0.85, q, xs, ell, streams.stream(14, 1))
    np.testing.assert_array_equal(new_ell.view(np.uint64),
                                  fam.target.log_unnorm(new).view(np.uint64))
    stayed = np.all(new == xs, axis=1)
    assert stayed.any() and not stayed.all()
    # the step draws its proposals first
    prop = fam.target.log_unnorm(xs + q.sample(xs.shape[0], streams.stream(14, 1)))
    assert np.isneginf(prop).any() == np.isneginf(ell).any() == spiked


def test_acceptance_invariant_under_log_constant_shift():
    # unnormalized-density invariance: shifting log pi by a constant changes nothing
    shifted = TemperedFamily(
        target=gaussian_target([0.0], [1.0]),
        schedule=linear_schedule(0.7),
    )
    bumped = TemperedFamily(
        target=type(shifted.target)(
            dim=1,
            log_unnorm=lambda x: shifted.target.log_unnorm(x) + 123.456,
            sup_log_unnorm=123.456,
        ),
        schedule=linear_schedule(0.7),
    )
    q = gaussian_increment(1, 1.0)
    x = np.linspace(-2, 2, 64)[:, None]
    a = step(shifted, 0.8, q, x, streams.stream(7, 0))
    b = step(bumped, 0.8, q, x, streams.stream(7, 0))
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------- long-run law

def test_long_run_moments_match_invariant_law():
    # 1e6 iterates of the standard Gaussian chain; batch-means standard errors
    fam = std_family()
    q = gaussian_increment(1, 1.0)
    n_steps, n_chains = 2_000, 500
    xs = fam.target.tempered_sampler(1.0, n_chains, streams.stream(8, 0))
    means, sqs = [], []
    for i in range(n_steps):
        xs = step(fam, 1.0, q, xs, streams.stream(8, 1 + i))
        means.append(xs[:, 0].mean())
        sqs.append((xs[:, 0] ** 2).mean())
    batches = np.array_split(np.array(means), 100)
    bm = np.array([b.mean() for b in batches])
    se_mean = bm.std(ddof=1) / math.sqrt(len(bm))
    assert abs(np.mean(means) - 0.0) < 4 * se_mean
    batches = np.array_split(np.array(sqs), 100)
    bv = np.array([b.mean() for b in batches])
    se_var = bv.std(ddof=1) / math.sqrt(len(bv))
    assert abs(np.mean(sqs) - 1.0) < 4 * se_var


def test_one_step_invariance_two_sample():
    # start exactly at the tempered law, one kernel step, compare to fresh draws
    fam = std_family()
    n_kernel = 6
    kf = rwm_kernel_family(fam, n_kernel, gaussian_increment(1, 1.0))
    for k in (2, n_kernel):
        gamma = fam.schedule(k / n_kernel)
        start = fam.target.tempered_sampler(gamma, 10_000, streams.stream(9, k, 0))
        stepped, _ = kf.sample_batch(k, start, fam.target.log_unnorm(start),
                                     streams.stream(9, k, 1))
        fresh = fam.target.tempered_sampler(gamma, 10_000, streams.stream(9, k, 2))
        stat = scipy.stats.ks_2samp(stepped[:, 0], fresh[:, 0])
        assert stat.pvalue > 1e-3


def test_detailed_balance_flux():
    # paired-bin transition flux balances under stationarity
    fam = std_family()
    q = gaussian_increment(1, 1.0)
    n_steps, n_chains = 2_000, 500
    xs = fam.target.tempered_sampler(1.0, n_chains, streams.stream(10, 0))
    a_to_b = b_to_a = 0
    bin_a = lambda v: (v >= -0.6) & (v < 0.0)
    bin_b = lambda v: (v >= 0.0) & (v < 0.6)
    for i in range(n_steps):
        prev = xs
        xs = step(fam, 1.0, q, xs, streams.stream(10, 1 + i))
        a_to_b += int(np.sum(bin_a(prev[:, 0]) & bin_b(xs[:, 0])))
        b_to_a += int(np.sum(bin_b(prev[:, 0]) & bin_a(xs[:, 0])))
    diff = a_to_b - b_to_a
    assert abs(diff) < 4 * math.sqrt(a_to_b + b_to_a)


# ------------------------------------------------------------- kernel family

def test_kernel_family_targets_terminal_temperature():
    fam = std_family()
    n_kernel = 5
    kf = rwm_kernel_family(fam, n_kernel, gaussian_increment(1, 1.0))
    # index bookkeeping: step k uses gamma(k/n); verify by matching a direct step
    x = np.linspace(-1, 1, 32)[:, None]
    for k in (1, 3, n_kernel):
        ell = fam.target.log_unnorm(x)
        direct = rwm_step_batch(fam, fam.schedule(k / n_kernel), gaussian_increment(1, 1.0), x,
                                ell, streams.stream(12, k))
        via_family = kf.sample_batch(k, x, ell, streams.stream(12, k))
        np.testing.assert_array_equal(direct[0], via_family[0])
        np.testing.assert_array_equal(direct[1], via_family[1])
    assert fam.schedule(1.0) == 1.0


# ------------------------------------------------------------- drift probe

def test_drift_probe_flat_v():
    fam = std_family()
    drift = DriftSpec(v=lambda x: np.ones(np.asarray(x).shape[0]))
    rep = drift_probe(fam, 0.7, gaussian_increment(1, 1.0), drift, [2.0, 4.0],
                      n_proposals=2_000, seed=0)
    np.testing.assert_allclose(rep.lambda_hat, 1.0, atol=1e-12)


def test_drift_probe_gaussian_contracts():
    fam = std_family()
    drift = drift_function(fam, 0.5)
    rep = drift_probe(fam, 0.7, gaussian_increment(1, 1.0), drift, [2.0, 4.0, 6.0],
                      n_proposals=100_000, seed=3)
    assert np.all(np.diff(rep.lambda_hat) < 0)
    assert rep.lambda_hat[-1] + rep.band[-1] < 1.0
    assert rep.safe_radius is not None
    again = drift_probe(fam, 0.7, gaussian_increment(1, 1.0), drift, [2.0, 4.0, 6.0],
                        n_proposals=100_000, seed=3)
    np.testing.assert_array_equal(rep.lambda_hat, again.lambda_hat)
