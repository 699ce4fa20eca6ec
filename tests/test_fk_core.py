import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from tempersmc import streams
from tempersmc.finite import drift_inputs_for_chain, metropolis_matrix, table_model
from tempersmc.fk_core import FKModel


def _kernels(mats):
    """The kernel family of a table model on the stack ``mats``."""
    m = len(mats[0])
    return table_model(mats, np.zeros((len(mats), m)), np.full(m, 1.0 / m)).kernels


def test_sample_batch_deterministic_given_stream():
    mats = [np.array([[0.3, 0.7], [0.6, 0.4]])] * 2
    kf = _kernels(mats)
    w = np.tile([2.0, 3.0], (20, 1))
    a = kf.sample_batch(1, w, 5, streams.stream(11, 0))
    b = kf.sample_batch(1, w, 5, streams.stream(11, 0))
    np.testing.assert_array_equal(a, b)
    # one call reads the stream row after row: it draws what the rows, drawn
    # one at a time from that stream, draw
    rng = streams.stream(11, 0)
    alone = [kf.sample_batch(1, w[i:i + 1], 5, rng)[0] for i in range(20)]
    np.testing.assert_array_equal(alone, a)
    # each row places all five particles, and the rows differ
    assert a.shape == (20, 2) and np.all(a.sum(axis=1) == 5)
    assert len({tuple(c) for c in a}) > 1


@pytest.mark.parametrize("row", range(3))
def test_sample_batch_frequencies_match_matrix_row(row):
    mats = [np.array([[0.15, 0.25, 0.6], [0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])]
    kf = _kernels(mats)
    n_draws = 100_000
    # weight on one state alone: every particle moves by that state's row
    w = np.zeros(3)
    w[row] = 1.0
    counts = kf.sample_batch(1, w[None], n_draws, streams.stream(5, row))[0]
    p = mats[0][row]
    # 4-sigma binomial bands per destination state
    for j in range(3):
        sd = np.sqrt(n_draws * p[j] * (1 - p[j]))
        assert abs(counts[j] - n_draws * p[j]) < 4 * sd
    # chi-square goodness of fit must not reject at the 1e-4 level
    _, pval = scipy.stats.chisquare(counts, n_draws * p)
    assert pval > 1e-4


def _valid_arrays():
    """A kernel stack, log-weight table, initial vector and bound that ``table_model`` accepts."""
    row = np.array([0.5, 0.25, 0.25])
    mats = np.stack([np.stack([np.roll(row, i) for i in range(3)])] * 5)
    mats[4] = np.eye(3)
    table = np.log(np.linspace(0.5, 2.0, 15)).reshape(5, 3)
    return mats, table, np.array([0.2, 0.3, 0.5]), float(table.max())


def _set(name, *entries):
    """A change to one of the arrays from ``_valid_arrays``: each (index, value) is written in."""
    def change(arrays):
        for index, value in entries:
            arrays[name][index] = value
    return change


_NOT_A_LAW = "^initial weights must be a probability vector$"
_NOT_FINITE = r"^potential table must be finite \(weights strictly positive\)$"


@pytest.mark.parametrize("change, message", [
    # the first bad step is named; rows still sum to 1 at step 3
    (_set("mats", ((2, 1), [1.5, -0.25, -0.25])),
     "^kernel matrix at step 3 is not a 3x3 nonnegative matrix$"),
    # a later negative step is not the first bad one
    (_set("mats", ((1, 0, 0), 0.6), ((3, 2), [1.5, -0.25, -0.25])),
     "^kernel matrix at step 2 has rows not summing to 1$"),
    (_set("mats", ((1, 2, 0), np.nan)), "^kernel matrix at step 2 has rows not summing to 1$"),
    (lambda a: a.update(mats=a["mats"][0]),
     r"^kernel matrices have shape \(3, 3\), not an \(n, m, m\) stack$"),
    (_set("mu", (0, np.nan)), _NOT_A_LAW),
    (_set("mu", (2, np.nan)), _NOT_A_LAW),
    (lambda a: a.update(mu=np.array([-0.5, 1.25, 0.25])), _NOT_A_LAW),
    (lambda a: a.update(mu=np.array([0.5, 0.6, 0.2])), _NOT_A_LAW),
    (_set("table", ((1, 2), np.nan)), _NOT_FINITE),
    (_set("table", ((3, 0), -np.inf)), _NOT_FINITE),
    (lambda a: a.update(table=a["table"][:, :2]),
     r"^potential table has shape \(5, 2\), expected \(5, 3\)$"),
    (lambda a: a.update(bound=a["bound"] - 1e-9),
     "^potential table exceeds the declared upper bound$"),
])
def test_table_model_checks_its_arrays_once(change, message):
    mats, table, mu, bound = _valid_arrays()
    model = table_model(mats, table, mu, log_g_max=bound)
    # the record holds the arrays as given: row k-1 of the stack is step k's matrix
    for got, want in zip((model.finite.kernels, model.finite.log_g, model.finite.mu),
                         (mats, table, mu)):
        np.testing.assert_array_equal(got, want)
    assert model.horizon == len(model.finite.kernels) == 5
    arrays = {"mats": mats.copy(), "table": table.copy(), "mu": mu.copy(), "bound": bound}
    change(arrays)
    with pytest.raises(ValueError, match=message):
        table_model(arrays["mats"], arrays["table"], arrays["mu"], log_g_max=arrays["bound"])


@pytest.mark.parametrize("mu", [[0.5, 0.25, 0.25], [[0.5, 0.5]], [1.0]],
                         ids=["long", "2-d", "short"])
def test_table_model_needs_one_initial_weight_per_state(mu):
    with pytest.raises(ValueError, match=r"^initial weights have shape \(.*\), expected \(2,\)$"):
        table_model(np.full((1, 2, 2), 0.5), np.zeros((1, 2)), mu)


def test_finite_arrays_must_match_the_model_horizon():
    model = table_model(*_valid_arrays()[:3])
    with pytest.raises(ValueError, match="^finite arrays do not match the model horizon$"):
        replace(model, horizon=4)


def test_a_model_has_exactly_one_initial_law():
    # a finite model's initial law is its mu; any other model's is its sampler
    model = table_model(*_valid_arrays()[:3])
    assert model.initial is None
    one = "^a model needs one initial law: an initial sampler or finite arrays$"
    with pytest.raises(ValueError, match=one):
        replace(model, initial=lambda size, rng: np.zeros(size, dtype=int))
    with pytest.raises(ValueError, match=one):
        FKModel(horizon=model.horizon, kernels=model.kernels, potentials=model.potentials)


def _metropolis_reference(logw, gamma, move_prob):
    """One lazy uniform-proposal Metropolis matrix, written out for a scalar gamma."""
    m = logw.size
    ratio = np.exp(np.minimum(0.0, gamma * (logw[None, :] - logw[:, None])))
    p = move_prob / (m - 1) * ratio
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def _drift_scan_per_gamma(logw, gamma_floor, move_prob, beta, lam):
    """Drift offset and smallest entry over a dense temperature grid, one matrix at a time."""
    v = np.exp(-beta * gamma_floor * (logw - logw.max()))
    b, min_entry = 0.0, np.inf
    for g in np.linspace(gamma_floor, 1.0, 2001):
        mk = _metropolis_reference(logw, g, move_prob)
        b = max(b, float(np.max(mk @ v - lam * v)))
        min_entry = min(min_entry, float(mk.min()))
    return b, min_entry


def _drift_at_floor(logw, gamma_floor, move_prob, beta, lam):
    """The drift offset of the kernel at gamma_floor alone."""
    v = np.exp(-beta * gamma_floor * (logw - logw.max()))
    mk = _metropolis_reference(logw, gamma_floor, move_prob)
    return max(0.0, float(np.max(mk @ v - lam * v)))


def test_metropolis_stack_and_drift_scan_equal_per_gamma_loop():
    # the certificate reads the two end kernels; a dense scan of the range finds
    # the same extremes, bit for bit, on every chain that is not near flat
    rng = np.random.default_rng(2011)
    for sd in (1e-3, 0.5, 3.0, 30.0, 1e-9):
        for _ in range(8):
            m = int(rng.integers(2, 13))
            logw = rng.normal(0.0, sd, m)
            gamma_floor, move_prob, beta, lam = rng.uniform([0.05, 0.05, 0.05, 0.05],
                                                            [1.0, 0.95, 0.95, 0.95])
            gammas = np.linspace(gamma_floor, 1.0, 7)
            stack = metropolis_matrix(logw, gammas, move_prob)
            for g, mk in zip(gammas, stack):
                reference = _metropolis_reference(logw, g, move_prob)
                assert np.array_equal(mk, reference)
                assert np.array_equal(metropolis_matrix(logw, g, move_prob), reference)
            b, min_entry = _drift_scan_per_gamma(logw, gamma_floor, move_prob, beta, lam)
            b_floor = _drift_at_floor(logw, gamma_floor, move_prob, beta, lam)
            drift, (eps, _) = drift_inputs_for_chain(logw, gamma_floor, move_prob, beta, lam)
            assert drift.b_d == max(1.05 * b_floor, 1e-6)
            assert eps == 0.999 * m * min_entry
            if sd > 1e-9:
                assert b == b_floor
            else:
                # near-flat weights: rounding at interior temperatures can read
                # the scan a few ulps above the offset at gamma_floor, its supremum
                assert 0.0 <= b / b_floor - 1.0 <= 1e-13

    # at m = 80 the certificate builds two kernels, not the scan's stack
    m, gamma_floor, move_prob, beta, lam = 80, 0.3, 0.4, 0.5, 0.6
    logw = rng.normal(0.0, 3.0, m)
    b, min_entry = _drift_scan_per_gamma(logw, gamma_floor, move_prob, beta, lam)
    tracemalloc.start()
    try:
        drift, (eps, _) = drift_inputs_for_chain(logw, gamma_floor, move_prob, beta, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drift.b_d == max(1.05 * b, 1e-6)
    assert eps == 0.999 * m * min_entry
    # the one-stack scan peaked at about 198 MiB here
    assert peak < 20 * 2**20
