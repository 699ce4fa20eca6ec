import numpy as np
import pytest
import scipy.stats

from tempersmc import streams
from tempersmc.fk_core import PotentialFamily, normalized_log_potential, u_function
from tempersmc.finite import matrix_kernel_family


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
