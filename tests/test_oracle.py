import itertools
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from finite_models import fixture_drift_inputs, random_finite_model, two_state_fixture
from tempersmc.finite import table_model
from tempersmc.oracle import (
    _weighted_stack,
    eta_exact,
    flow_map,
    flow_map_via_s,
    future_potential_mass,
    norm_const_lower_bound_check,
    s_kernels,
    tilted_drift_objects,
    v_norm_distance,
)
from tempersmc.fk_core import DriftSpec

M2 = np.array([[0.9, 0.1], [0.2, 0.8]])
G2 = np.array([1.0, 0.5])


def two_state_model(n=3):
    """Time-homogeneous two-state model with hand-checkable numbers."""
    table = np.tile(np.log(G2), (n, 1))
    return table_model([M2] * n, table, np.array([0.6, 0.4]))


def flat_model(n=4, m=3):
    # dyadic rows keep the unit-potential flow bit-exact
    row = np.array([0.5, 0.25, 0.25][:m])
    row[-1] += 1.0 - row.sum()
    mats = [np.stack([np.roll(row, i) for i in range(m)]) for _ in range(n)]
    return table_model(mats, np.zeros((n, m)), np.roll(row, 1))


# ---------------------------------------------------------------- measures

@pytest.mark.parametrize(
    "bad",
    [[5.0, 5.0], [2.0, 2.0], [0.5, 0.6], [-0.1, 1.1], [np.nan, 1.0], [np.inf, 0.0], [],
     [[0.5, 0.5]], 1.0],
)
def test_measure_inputs_must_be_probability_vectors(bad):
    model = two_state_model()
    drift = DriftSpec(v=np.ones(2), lam=0.5, level_d=1.0, b_d=1.0)
    calls = [
        ("eta", lambda: flow_map(model, bad, 0, 2)),
        ("eta", lambda: flow_map_via_s(model, bad, 0)),
        ("nu", lambda: tilted_drift_objects(model, drift, (0.1, bad))),
        ("mu", lambda: norm_const_lower_bound_check(model, drift, mu=bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} "):
            call()


# ---------------------------------------------------------------- q matrices

def q_matrix(model, k):
    """Q[k], row k-1 of the weighted stack with shift 0."""
    return _weighted_stack(model, 0.0)[k - 1]


def test_q_matrix_unit_potential_equals_kernel():
    model = flat_model()
    np.testing.assert_allclose(q_matrix(model, 2), model.finite.kernels[1], atol=0)


def test_q_matrix_hand_values():
    model = two_state_model()
    expected = np.array([[0.9, 0.1], [0.1, 0.4]])
    np.testing.assert_allclose(q_matrix(model, 1), expected, atol=1e-15)


def test_q_matrix_row_sums_equal_potential():
    rng = np.random.default_rng(3)
    model = random_finite_model(rng, m=4, n=6)
    for k in range(1, 7):
        g = np.exp(model.potentials.log_g(k - 1, np.arange(4)))
        np.testing.assert_allclose(q_matrix(model, k).sum(axis=1), g, rtol=1e-14)


# ---------------------------------------------------------------- exact flow

def test_eta_exact_step_zero_is_mu():
    model = two_state_model()
    np.testing.assert_array_equal(eta_exact(model, 0), model.finite.mu)


def test_eta_exact_unit_potential_is_kernel_propagation():
    model = flat_model(n=3, m=3)
    mu = model.finite.mu
    expected = mu @ model.finite.kernels[0] @ model.finite.kernels[1]
    np.testing.assert_allclose(eta_exact(model, 2), expected, atol=1e-14)


def test_eta_exact_matches_path_enumeration():
    # brute force: sum over all paths weighted by the running products
    model = two_state_model()
    k = 2
    mu = model.finite.mu
    g = [np.exp(model.potentials.log_g(j, np.arange(2))) for j in range(k)]
    mats = model.finite.kernels[:k]
    raw = np.zeros(2)
    for path in itertools.product(range(2), repeat=k + 1):
        weight = mu[path[0]]
        for j in range(k):
            weight *= g[j][path[j]] * mats[j][path[j], path[j + 1]]
        raw[path[-1]] += weight
    np.testing.assert_allclose(eta_exact(model, k), raw / raw.sum(), atol=1e-14)


def test_flow_map_identity_and_composition():
    rng = np.random.default_rng(5)
    model = random_finite_model(rng, m=5, n=10)
    eta = rng.dirichlet(np.ones(5))
    np.testing.assert_array_equal(flow_map(model, eta, 4, 4), eta)
    via_j = flow_map(model, flow_map(model, eta, 1, 6), 6, 10)
    np.testing.assert_allclose(via_j, flow_map(model, eta, 1, 10), atol=1e-12)


def test_flow_consistency():
    rng = np.random.default_rng(6)
    model = random_finite_model(rng, m=4, n=9)
    for k in range(10):
        for l in range(k, 10):
            got = flow_map(model, eta_exact(model, k), k, l)
            np.testing.assert_allclose(got, eta_exact(model, l), atol=1e-12)


# ---------------------------------------------------------------- S kernels

def s_kernel(model, k):
    return s_kernels(model, future_potential_mass(model))[k - 1]


def test_s_kernel_terminal_and_flat():
    model = two_state_model(n=3)
    np.testing.assert_allclose(s_kernel(model, 3), M2, atol=1e-14)
    flat = flat_model(n=4, m=3)
    for k in range(1, 5):
        np.testing.assert_allclose(s_kernel(flat, k), flat.finite.kernels[k - 1], atol=1e-14)


def test_s_kernel_hand_computation():
    model = two_state_model(n=3)
    k = 1
    # future normalized-weight mass after step k, computed by hand recursion
    gt = G2 / G2.max()
    h3 = np.ones(2)
    h2 = gt * (M2 @ h3)
    h1 = gt * (M2 @ h2)
    expected = M2 * h1[None, :]
    expected /= expected.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(s_kernel(model, k), expected, atol=1e-14)
    np.testing.assert_allclose(future_potential_mass(model)[k], h1, atol=1e-14)


def test_s_kernel_rows_sum_to_one():
    rng = np.random.default_rng(8)
    model = random_finite_model(rng, m=5, n=7)
    for k in range(1, 8):
        np.testing.assert_allclose(s_kernel(model, k).sum(axis=1), 1.0, atol=1e-12)


def test_flow_via_s_trivial_cases():
    model = two_state_model(n=3)
    eta = np.array([0.3, 0.7])
    np.testing.assert_allclose(flow_map_via_s(model, eta, 3), eta, atol=1e-15)
    flat = flat_model(n=3, m=3)
    eta3 = np.array([0.2, 0.5, 0.3])
    expected = flow_map(flat, eta3, 0, 3)
    np.testing.assert_allclose(flow_map_via_s(flat, eta3, 0), expected, atol=1e-12)


def test_dual_route_identity_random_models():
    rng = np.random.default_rng(13)
    for _ in range(100):
        model = random_finite_model(rng, m=5, n=6)
        eta = rng.dirichlet(np.ones(5))
        k = int(rng.integers(0, 7))
        a = flow_map_via_s(model, eta, k)
        b = flow_map(model, eta, k, 6)
        np.testing.assert_allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------- tilted drift

def _flat_drift_inputs(model):
    m = model.finite.mu.size
    v = np.ones(m)
    eps = m * float(model.finite.kernels.min())
    nu = np.full(m, 1.0 / m)
    drift = DriftSpec(v=v, lam=0.5, level_d=1.0, b_d=1.0)
    return drift, (eps, nu)


def test_tilted_drift_flat_model():
    model = flat_model(n=4, m=3)
    drift, minor = _flat_drift_inputs(model)
    td = tilted_drift_objects(model, drift, minor)
    i = 1  # k = 2
    assert td.a2_ok[i]
    np.testing.assert_allclose(td.v_nk[i], 1.0, atol=1e-14)
    np.testing.assert_allclose(td.v_prev[i], 1.0, atol=1e-14)
    assert td.minor_ok[i].all() and td.drift_ok[i].all()


def test_tilted_drift_hand_computation():
    model = two_state_model(n=3)
    v = np.array([1.0, 1.5])
    lam = 0.9
    mv = M2 @ v
    b = float(np.max(mv - lam * v)) * 1.01
    eps = 2 * float(M2.min()) * 0.999
    nu = np.array([0.5, 0.5])
    drift = DriftSpec(v=v, lam=lam, level_d=float(v.max()), b_d=b)
    td = tilted_drift_objects(model, drift, (eps, nu))
    i = 1  # k = 2
    assert td.a2_ok[i]
    # independent recomputation of the tilt coefficient: backward recursion
    # from the terminal step (n = 3), stopping at step 2
    gt = G2 / G2.max()
    h3 = np.ones(2)
    h2 = gt * (M2 @ h3)
    assert td.eps_nk[i] == pytest.approx(eps * float(nu @ h2), rel=1e-13)
    assert td.b_nk_proof[i] == pytest.approx(b / td.eps_nk[i], rel=1e-13)
    expected_nu = nu * h2 / (nu @ h2)
    np.testing.assert_allclose(td.nu_nk[i], expected_nu, atol=1e-14)
    assert td.minor_ok[i].all() and td.drift_ok[i].all()


def test_tilted_drift_terminal_v_is_v():
    model = two_state_model(n=3)
    _, minor = _flat_drift_inputs(model)
    drift = DriftSpec(v=np.array([1.0, 2.0]), lam=0.9, level_d=2.0, b_d=3.0)
    td = tilted_drift_objects(model, drift, minor)
    np.testing.assert_array_equal(td.v_nk[-1], np.array([1.0, 2.0]))  # k = n = 3


def test_tilted_drift_reports_broken_inputs():
    model = two_state_model(n=3)
    v = np.array([1.0, 1.5])
    # lam declared far too small for these matrices
    drift = DriftSpec(v=v, lam=0.01, level_d=1.0, b_d=1e-6)
    td = tilted_drift_objects(model, drift, (0.9, np.array([0.5, 0.5])))
    assert td.a2_ok.shape == (3,)
    assert not td.a2_ok.any()
    assert td.a2_failures


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan])
def test_tilted_drift_needs_a_positive_minorization_constant(eps):
    model = two_state_model(n=3)
    drift, (_, nu) = _flat_drift_inputs(model)
    with pytest.raises(ValueError, match="^eps must be > 0"):
        tilted_drift_objects(model, drift, (eps, nu))


@pytest.mark.parametrize("v", [np.ones(3), [[1.0, 1.0]], lambda s: np.ones(len(s))],
                         ids=["length", "matrix", "callable"])
def test_tilted_drift_needs_a_drift_vector_over_the_states(v):
    model = two_state_model(n=3)
    drift, minor = _flat_drift_inputs(model)
    with pytest.raises(ValueError, match=r"^drift vector has shape .*, expected \(2,\)$"):
        tilted_drift_objects(model, replace(drift, v=v), minor)


# ---------------------------------------------------------------- v-norm

def test_v_norm_basic():
    a = np.array([0.2, 0.8])
    b = np.array([0.5, 0.5])
    assert v_norm_distance(a, a, np.ones(2)) == 0.0
    assert v_norm_distance(a, b, np.ones(2)) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        v_norm_distance(a, b, np.ones(2), alpha=0.0)
    with pytest.raises(ValueError):
        v_norm_distance(a, b, np.array([0.5, 1.0]))


def test_v_norm_matches_sign_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(5))
        v = 1.0 + rng.random(5) * 3.0
        alpha = float(rng.uniform(0.1, 1.0))
        # brute force over all sign patterns of phi = +/- v^alpha
        best = max(
            abs(np.sum((a - b) * np.array(signs) * v**alpha))
            for signs in itertools.product([-1.0, 1.0], repeat=5)
        )
        assert v_norm_distance(a, b, v, alpha) == pytest.approx(best, rel=1e-12)


def test_v_norm_metric_axioms():
    rng = np.random.default_rng(22)
    v = 1.0 + rng.random(4)
    for _ in range(50):
        a, b, c = (rng.dirichlet(np.ones(4)) for _ in range(3))
        dab = v_norm_distance(a, b, v, 0.7)
        assert dab == pytest.approx(v_norm_distance(b, a, v, 0.7))
        assert dab <= v_norm_distance(a, c, v, 0.7) + v_norm_distance(c, b, v, 0.7) + 1e-15


# ---------------------------------------------------------------- lemma-3 bound

def test_norm_const_unit_potential():
    model = flat_model(n=3, m=3)
    drift = DriftSpec(v=np.ones(3), lam=0.5, level_d=1.0, b_d=1.0)
    rep = norm_const_lower_bound_check(model, drift, model.finite.mu)
    assert rep.ok
    np.testing.assert_allclose(rep.per_k, 1.0, atol=1e-14)


def test_norm_const_terminal_mass_is_one():
    model = two_state_fixture(6)
    np.testing.assert_array_equal(future_potential_mass(model)[6], np.ones(2))


def test_norm_const_fixture_grid():
    drift, _ = fixture_drift_inputs()
    for n in range(1, 21):
        model = two_state_fixture(n)
        rep = norm_const_lower_bound_check(model, drift, model.finite.mu)
        assert rep.a1_ok and rep.drift_ok
        assert rep.min_mass >= rep.bound


# ---------------------------------------------------------------- arrays only

def _raises(*args):
    raise AssertionError("the oracle called a sampler or potential closure")


def _bits(value):
    """Every field of an oracle result as bytes, so equal bits compare equal."""
    if is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name)) for f in fields(value)}
    return np.asarray(value).tobytes()


def test_oracle_reads_only_the_finite_arrays():
    n = 12
    intact = two_state_fixture(n)
    stubbed = replace(
        intact,
        kernels=replace(intact.kernels, sample_batch=_raises),
        potentials=replace(intact.potentials, log_g=_raises, statistic=_raises),
    )
    drift, minorizer = fixture_drift_inputs()
    eta = np.array([0.3, 0.7])
    calls = [
        future_potential_mass,
        lambda model: eta_exact(model, 7),
        lambda model: flow_map(model, eta, 2, 9),
        lambda model: flow_map_via_s(model, eta, 3),
        lambda model: tilted_drift_objects(model, drift, minorizer),
        lambda model: norm_const_lower_bound_check(model, drift, model.finite.mu),
    ]
    for call in calls:
        assert _bits(call(stubbed)) == _bits(call(intact))
