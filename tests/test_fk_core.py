import numpy as np
import pytest
import scipy.stats

from tempersmc import streams
from tempersmc.fk_core import PotentialFamily, normalized_log_potential, u_function
from tempersmc.finite import (
    _inverse_cdf,
    drift_inputs_for_chain,
    matrix_kernel_family,
    metropolis_matrix,
    table_model,
)


def _constant_family(n, c):
    return PotentialFamily(horizon=n, log_g=lambda k, x: np.log(c) * np.ones_like(
        np.asarray(x, dtype=float)[..., 0] if np.asarray(x).ndim > 1 else np.asarray(x, dtype=float)
    ), log_g_max=float(np.log(c)))


def test_normalized_log_potential_constant():
    pf = _constant_family(4, 2.5)
    for k in range(4):
        assert normalized_log_potential(pf, k, 0.7) == pytest.approx(0.0)


def test_normalized_log_potential_gaussian_increment():
    # standard Gaussian weight, identity temperature path, n=10, k=0, x=2
    n = 10
    gamma = lambda u: u

    def log_g(k, x):
        return (gamma((k + 1) / n) - gamma(k / n)) * (-np.asarray(x, dtype=float) ** 2 / 2.0)

    pf = PotentialFamily(horizon=n, log_g=log_g, log_g_max=0.0)
    assert normalized_log_potential(pf, 0, 2.0) == pytest.approx(-0.2)
    assert u_function(pf, 0, 2.0) == pytest.approx(2.0)


def test_potential_table_cross_check():
    # independent hand evaluation of a configured two-state table
    table = np.array([[0.1, -0.3], [-0.2, 0.4], [0.0, -0.1]])
    pf = PotentialFamily(horizon=3, log_g=lambda k, x: table[k][np.asarray(x, dtype=int)],
                         log_g_max=0.4)
    got = normalized_log_potential(pf, 1, 0)
    assert got == pytest.approx(table[1, 0] - 0.4, abs=1e-15)


def test_u_function_matches_definition():
    rng = np.random.default_rng(0)
    table = rng.uniform(-1.0, 0.5, size=(6, 4))
    pf = PotentialFamily(horizon=6, log_g=lambda k, x: table[k][np.asarray(x, dtype=int)],
                         log_g_max=float(table.max()))
    xs = np.arange(4)
    for k in range(6):
        nlp = normalized_log_potential(pf, k, xs)
        assert np.all(nlp <= 1e-15)
        assert np.all(np.exp(nlp) > 0)
        u = u_function(pf, k, xs)
        assert np.all(u >= -1e-12)
        np.testing.assert_allclose(u, -6 * nlp, rtol=0, atol=1e-12)


def test_potential_index_range_errors():
    pf = _constant_family(4, 1.0)
    with pytest.raises(ValueError):
        normalized_log_potential(pf, 4, 0.0)
    with pytest.raises(ValueError):
        u_function(pf, -1, 0.0)


def test_sample_batch_deterministic_given_stream():
    mats = [np.array([[0.3, 0.7], [0.6, 0.4]])] * 2
    kf = matrix_kernel_family(mats)
    xs = np.array([0, 1, 0, 1, 1])
    a = [kf.sample_batch(1, xs, streams.stream(11, i)) for i in range(20)]
    b = [kf.sample_batch(1, xs, streams.stream(11, i)) for i in range(20)]
    np.testing.assert_array_equal(a, b)


def test_sample_batch_frequencies_match_matrix_row():
    mats = [np.array([[0.15, 0.25, 0.6], [0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])]
    kf = matrix_kernel_family(mats)
    n_draws = 100_000
    rng = streams.stream(5, 0)
    draws = kf.sample_batch(1, np.zeros(n_draws, dtype=int), rng)
    counts = np.bincount(draws, minlength=3)
    row = mats[0][0]
    # 4-sigma binomial bands per destination state
    for j in range(3):
        sd = np.sqrt(n_draws * row[j] * (1 - row[j]))
        assert abs(counts[j] - n_draws * row[j]) < 4 * sd
    # chi-square goodness of fit must not reject at the 1e-4 level
    _, pval = scipy.stats.chisquare(counts, n_draws * row)
    assert pval > 1e-4


def _row_search(u, cum):
    """The row form of the inverse CDF: compare each uniform with its whole cumulative row."""
    return np.minimum((u[:, None] > cum).sum(axis=1), cum.shape[-1] - 1)


def _edge_kernel(rng, m):
    """Random kernel with zero entries and a row whose cumsum ends just below 1."""
    a = rng.dirichlet(np.ones(m), size=m)
    a[rng.random((m, m)) < 0.3] = 0.0
    a[:, 0] += 1e-3  # no empty row
    a /= a.sum(axis=1, keepdims=True)
    a[0] = 0.0
    a[0, m // 2] = 1.0 - 5e-13
    return a


@pytest.mark.parametrize("m", range(2, 7))
def test_column_sampler_equals_row_sampler(m):
    rng = np.random.default_rng(m)
    a = _edge_kernel(rng, m)
    cum = np.cumsum(a, axis=1)
    assert 0 < 1.0 - cum[0, -1] < 1e-12 and np.any(a == 0.0)
    xs = rng.integers(0, m, size=20_000)
    xs[:m * m] = np.repeat(np.arange(m), m)
    u = rng.random(xs.size)
    # uniforms exactly on each cumulative weight, and past the short row's end
    u[:m * m] = cum.ravel()
    u[m * m:m * m + m] = np.nextafter(1.0, 0.0)
    expected = _row_search(u, cum[xs])
    np.testing.assert_array_equal(_inverse_cdf(u, (c[xs] for c in cum[:, :-1].T)), expected)
    kf = matrix_kernel_family([a])
    drawn = kf.sample_batch(1, xs, streams.stream(13, m))
    u_stream = streams.stream(13, m).random(xs.size)
    np.testing.assert_array_equal(drawn, _row_search(u_stream, cum[xs]))
    # the 1-d cumsum of an initial law, through the sampler of a finite model
    mu = a[0]
    np.testing.assert_array_equal(_inverse_cdf(u, np.cumsum(mu)[:-1]),
                                  _row_search(u, np.cumsum(mu)))
    initial = table_model([a], np.zeros((1, m)), mu).initial
    np.testing.assert_array_equal(initial.sample(xs.size, streams.stream(17, m)),
                                  _row_search(streams.stream(17, m).random(xs.size),
                                              np.cumsum(mu)))


@pytest.mark.parametrize("mu", [[np.nan, 1.0], [0.5, np.nan], [-0.5, 1.5], [0.5, 0.6]])
def test_initial_law_must_be_a_probability_vector(mu):
    with pytest.raises(ValueError, match="probability vector"):
        table_model([np.eye(2)], np.zeros((1, 2)), np.array(mu))


def _metropolis_reference(logw, gamma, move_prob):
    """One lazy uniform-proposal Metropolis matrix, written out for a scalar gamma."""
    m = logw.size
    ratio = np.exp(np.minimum(0.0, gamma * (logw[None, :] - logw[:, None])))
    p = move_prob / (m - 1) * ratio
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def _drift_scan_per_gamma(logw, gamma_floor, move_prob, beta, lam):
    """The temperature scan of ``drift_inputs_for_chain``, one matrix at a time."""
    v = np.exp(-beta * gamma_floor * (logw - logw.max()))
    b, min_entry = 0.0, np.inf
    for g in np.linspace(gamma_floor, 1.0, 2001):
        mk = _metropolis_reference(logw, g, move_prob)
        b = max(b, float(np.max(mk @ v - lam * v)))
        min_entry = min(min_entry, float(mk.min()))
    return b, min_entry


def test_metropolis_stack_and_drift_scan_equal_per_gamma_loop():
    rng = np.random.default_rng(2011)
    for _ in range(30):
        m = int(rng.integers(2, 9))
        logw = rng.normal(0.0, rng.choice([0.5, 3.0]), m)
        gamma_floor, move_prob, beta, lam = rng.uniform([0.05, 0.05, 0.05, 0.05],
                                                        [1.0, 0.95, 0.95, 0.95])
        gammas = np.linspace(gamma_floor, 1.0, 7)
        stack = metropolis_matrix(logw, gammas, move_prob)
        for g, mk in zip(gammas, stack):
            reference = _metropolis_reference(logw, g, move_prob)
            assert np.array_equal(mk, reference)
            assert np.array_equal(metropolis_matrix(logw, g, move_prob), reference)
        b, min_entry = _drift_scan_per_gamma(logw, gamma_floor, move_prob, beta, lam)
        drift, (eps, _) = drift_inputs_for_chain(logw, gamma_floor, move_prob, beta, lam)
        assert drift.b_d == max(1.05 * b, 1e-6)
        assert eps == 0.999 * m * min_entry
