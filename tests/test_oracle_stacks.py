"""The stacked oracle against a per-step reference written as plain loops over k.

The reference recomputes every per-step quantity of ``tilted_drift_objects``
the direct way: one backward step of the future mass at a time, one
twisted kernel S_k at a time, and the A2 checks one kernel at a time, each
step's failure list deduplicated in step order.  Hypothesis draws table
models with 2..6 states and horizons 1..40, a strict small set (level_d
below max V), and a few chosen steps whose kernel sends every state to
the state of largest V, where the drift fails.  The kernel stack's own
checks are tested with the other table-model checks in test_fk_core.py.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tempersmc.finite import table_model
from tempersmc.fk_core import DriftSpec
from tempersmc.oracle import tilted_drift_objects

SLACK = 1e-12
FIELDS = ("eps_nk", "b_nk", "b_nk_proof", "nu_nk", "v_nk", "v_prev", "minor_ok", "drift_ok",
          "drift_ok_proof", "a2_ok")


def reference(model, drift, eps, nu):
    """Per step k = 1..n: a dict of the ``TiltedDriftObjects`` fields; then the failure list."""
    n, m = model.horizon, model.finite.mu.size
    states = np.arange(m)
    mats = list(model.finite.kernels)
    log_g_max = model.potentials.log_g_max

    hs = [None] * (n + 1)
    h = np.ones(m, dtype=np.longdouble)
    hs[n] = h.astype(float)
    for j in range(n, 0, -1):
        q_tilde = np.exp(model.potentials.log_g(j - 1, states) - log_g_max)[:, None] * mats[j - 1]
        h = q_tilde.astype(np.longdouble) @ h
        hs[j - 1] = h.astype(float)

    v = drift.v
    c_mask = v <= drift.level_d * (1.0 + SLACK)
    model_failures = []
    if np.any(v < 1.0 - SLACK):
        model_failures.append("drift function has entries below 1")
    else:
        for k in range(1, n + 1):
            minor = mats[k - 1][c_mask] - eps * nu[None, :]
            if minor.size and minor.min() < -SLACK:
                model_failures.append(
                    f"minorization fails for kernel k={k} (worst {minor.min():.3e})")
            gap = (mats[k - 1] @ v - (drift.lam * v + drift.b_d * c_mask)).max()
            if gap > SLACK * max(1.0, drift.b_d):
                model_failures.append(f"drift fails for kernel k={k} (worst +{gap:.3e})")

    v_tilted = [v / (mats[j] @ hs[j + 1]) for j in range(n)] + [v]
    rows, failures = [], []
    for k in range(1, n + 1):
        step_failures = list(model_failures)
        eps_nk = eps * float(nu @ hs[k])
        b_proof = drift.b_d / eps_nk
        b_printed = drift.b_d / (eps * float(nu @ hs[k - 1]))
        nu_nk = nu * hs[k] / (nu @ hs[k])
        v_nk, v_prev = v_tilted[k], v_tilted[k - 1]
        if np.any(v_nk < 1.0 - SLACK):
            step_failures.append("tilted drift function dips below 1 (model inconsistent)")
        raw = mats[k - 1] * hs[k][None, :]
        s_k = raw / raw.sum(axis=1, keepdims=True)
        lhs = s_k @ v_nk
        scale = SLACK * np.maximum(1.0, np.abs(lhs))
        rows.append({
            "eps_nk": eps_nk, "b_nk": b_printed, "b_nk_proof": b_proof, "nu_nk": nu_nk,
            "v_nk": v_nk, "v_prev": v_prev,
            "minor_ok": (s_k[c_mask] - eps_nk * nu_nk[None, :]).min(axis=1) >= -SLACK,
            "drift_ok": lhs <= drift.lam * v_prev + b_printed * c_mask + scale,
            "drift_ok_proof": lhs <= drift.lam * v_prev + b_proof * c_mask + scale,
            "a2_ok": not step_failures,
        })
        failures += [msg for msg in step_failures if msg not in failures]
    return rows, failures


@st.composite
def audit_inputs(draw):
    """A random table model with drift/minorization inputs; the drift fails at ``bad`` steps.

    The minorization constant, the drift rate and the drift offset are drawn
    near the bounds the kernels of the other steps admit, so draws land on
    either side of them.
    """
    m = draw(st.integers(2, 6))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # the small set C = {V <= 2.5} holds 1..m-1 states, at V in [1, 2); the rest sit at [3, 6]
    small = np.arange(m) < draw(st.integers(1, m - 1))
    v = np.where(small, 1.0 + rng.random(m), 3.0 + 3.0 * rng.random(m))
    if draw(st.booleans()):
        v[0] = 1.0  # a state at the floor of V
    top = int(np.argmax(v))
    level_d = 2.5
    c_mask = v <= level_d * (1.0 + SLACK)

    # kernels leaning toward the state of smallest V, so the drift can hold
    lean = draw(st.floats(0.05, 0.3))
    mats = rng.dirichlet(np.ones(m), size=(n, m))
    mats = lean * mats + (1.0 - lean) * (np.arange(m) == np.argmin(v))
    mv = mats @ v
    lam = min(0.99, draw(st.floats(0.9, 1.2)) * float((mv / v)[:, ~c_mask].max()))
    nu = rng.dirichlet(np.ones(m))
    eps = draw(st.floats(0.5, 1.2)) * float((mats[:, c_mask] / nu).min())
    b_d = draw(st.floats(0.5, 1.5)) * max(0.0, float((mv - lam * v)[:, c_mask].max()))

    bad = draw(st.sets(st.integers(1, n), max_size=3))
    for k in bad:
        mats[k - 1] = np.arange(m) == top  # every state moves to the top of V
    if rng.random() < 0.1:
        v[0] = 0.5  # V below 1 breaks A2 outright
    table = rng.uniform(np.log(0.2), np.log(2.0), size=(n, m))
    model = table_model(mats, table, rng.dirichlet(np.ones(m)))
    return model, DriftSpec(v=v, lam=lam, level_d=level_d, b_d=b_d), eps, nu, sorted(bad)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(audit_inputs())
def test_stacked_tilted_drift_matches_per_step_reference(inputs):
    model, drift, eps, nu, bad = inputs
    td = tilted_drift_objects(model, drift, (eps, nu))
    rows, failures = reference(model, drift, eps, nu)
    n, m = model.horizon, model.finite.mu.size
    n_small = int(np.sum(drift.v <= drift.level_d * (1.0 + SLACK)))
    assert td.minor_ok.shape == (n, n_small) and td.nu_nk.shape == (n, m)
    assert td.eps_nk.shape == td.a2_ok.shape == (n,)
    for k, row in enumerate(rows, start=1):
        for name in FIELDS:
            got, want = getattr(td, name)[k - 1], row[name]
            if np.asarray(want).dtype == bool:
                np.testing.assert_array_equal(got, want, err_msg=f"{name} at k={k}")
            else:
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15,
                                           err_msg=f"{name} at k={k}")
    assert td.a2_failures == failures
    if drift.v.min() >= 1.0:
        flagged = [msg for msg in failures if msg.startswith("drift fails for kernel k=")]
        assert {f"drift fails for kernel k={k} " for k in bad} <= {
            msg[:msg.index("(")] for msg in flagged}
