import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from windquad.adaptive import AdaptationGains
from windquad.config import SCHEMA, load_config
from windquad.controller import ControllerGains
from windquad.se3 import attitude_error
from windquad.stability import (BoundAssumptions, build_pd_matrices,
                                format_report, lyapunov_value,
                                set_d_functional, validate_c1, validate_c2)

from conftest import random_rotation
from oracles import thrust_mismatch_term

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SYNTHETIC_CONFIG = str(CONFIG_DIR / "synthetic.ini")


def gains_for(k_x=16.0, k_v=5.6, k_R=8.0, k_Om=2.54, c1=1.0, c2=0.5,
              kap1=0.1, kap2=0.1, gw1=20.0, gv1=10.0, gw2=10.0, gv2=5.0):
    return ControllerGains(k_x=k_x, k_v=k_v, k_R=k_R, k_Omega=k_Om, c1=c1, c2=c2,
                           adapt1=AdaptationGains(gamma_w=gw1, gamma_v=gv1, kappa=kap1),
                           adapt2=AdaptationGains(gamma_w=gw2, gamma_v=gv2, kappa=kap2))


# --- coupling constant checks -------------------------------------------------

def test_c1_pass():
    chk = validate_c1(1.0, 16.0, 4.0)
    assert chk.passed and chk.limit == pytest.approx(2.0)


def test_c1_fail():
    assert not validate_c1(2.5, 16.0, 4.0).passed


def test_c1_boundary_is_strict():
    assert not validate_c1(2.0, 16.0, 4.0).passed


def test_c2_example():
    J = np.diag([0.02, 0.02, 0.04])
    chk = validate_c2(5.0, 8.0, J, 0.9)
    assert chk.limit == pytest.approx(10.0)
    assert chk.passed
    assert not validate_c2(10.0, 8.0, J, 0.9).passed


def test_c2_isotropic_inertia():
    J = 0.03 * np.eye(3)
    chk = validate_c2(0.1, 8.0, J, 0.5)
    first = math.sqrt(8.0 / 0.03)
    second = math.sqrt(2 * 8.0 / (0.03 * 1.5))
    assert chk.limit == pytest.approx(min(first, second))


# --- quadratic-form matrices ---------------------------------------------------

def test_M11_example():
    rep = build_pd_matrices(gains_for(k_x=16.0, c1=1.0), 2.0,
                            np.diag([0.02, 0.02, 0.04]),
                            BoundAssumptions(psi1=0.5))
    expected = 0.5 * np.array([[16.0, -2.0], [-2.0, 2.0]])
    assert np.allclose(rep.matrices["M11"], expected)
    assert rep.verdicts["M11"]
    assert np.all(np.linalg.eigvalsh(expected) > 0)


def test_M11_singular_at_c1_limit():
    rep = build_pd_matrices(gains_for(k_x=16.0, c1=2.0), 4.0,
                            np.diag([0.02, 0.02, 0.04]),
                            BoundAssumptions(psi1=0.5))
    eigs = rep.eigenvalues["M11"]
    assert min(abs(e) for e in eigs) < 1e-12
    assert not rep.verdicts["M11"]
    assert not rep.c1_check.passed


def test_N3_fails_for_large_B1():
    a = BoundAssumptions(psi1=0.1, B1=500.0, e_x_max=1.0,
                         W_max1=0.2, V_max1=0.1, W_max2=0.1, V_max2=0.1)
    rep = build_pd_matrices(gains_for(), 2.0, np.diag([0.02, 0.02, 0.04]), a)
    assert not rep.verdicts["N3"]


def test_coupling_entries_in_closed_form():
    # M21's off-diagonal -c2 lam_max(J) / 2 and N3's -c1 B1, bit for bit, on
    # a hand-built gain set: 0.5 scales exactly, so the order of the
    # products does not matter
    c1, c2, B1 = 1.5, 0.7, 3.3
    J = np.array([[0.02, 0.003, 0.0], [0.003, 0.025, -0.001], [0.0, -0.001, 0.04]])
    rep = build_pd_matrices(gains_for(c1=c1, c2=c2), 2.0, J,
                            BoundAssumptions(psi1=0.5, B1=B1))
    lam_max = np.linalg.eigvalsh(J)[-1]
    M21, N3 = rep.matrices["M21"], rep.matrices["N3"]
    assert M21[0, 1] == M21[1, 0] == -0.5 * c2 * lam_max
    assert N3[0, 2] == N3[2, 0] == -c1 * B1


def synthetic_reference_setup():
    gains = ControllerGains(
        k_x=60.0, k_v=12.0, k_R=100.0, k_Omega=2.0, c1=2.0, c2=0.8,
        adapt1=AdaptationGains(gamma_w=20.0, gamma_v=10.0, kappa=0.015),
        adapt2=AdaptationGains(gamma_w=10.0, gamma_v=5.0, kappa=0.05))
    a = BoundAssumptions(psi1=0.01, B1=5.6, B4=2.0, e_x_max=0.05,
                         x_d_max=0.0, v_d_max=0.0, E_max=0.3,
                         W_max1=0.2, V_max1=0.1, W_max2=0.1, V_max2=0.1)
    return gains, 0.5, np.diag([0.006, 0.006, 0.011]), a


def test_reference_gain_set_fully_positive_definite():
    gains, m, J, a = synthetic_reference_setup()
    rep = build_pd_matrices(gains, m, J, a)
    assert rep.all_positive_definite
    assert rep.nu > 0.0
    assert math.isfinite(rep.radius)


def test_pd_verdicts_monotone_in_stiffness(rng):
    J = np.diag([0.02, 0.02, 0.04])
    a = BoundAssumptions(psi1=0.2, W_max1=0.2, V_max1=0.1, W_max2=0.1, V_max2=0.1)
    for _ in range(20):
        k_x = rng.uniform(2.0, 50.0)
        k_R = rng.uniform(1.0, 50.0)
        base = build_pd_matrices(gains_for(k_x=k_x, k_R=k_R, c1=0.5, c2=0.3),
                                 1.5, J, a)
        bigger = build_pd_matrices(gains_for(k_x=2 * k_x, k_R=2 * k_R, c1=0.5, c2=0.3),
                                   1.5, J, a)
        for name in ("M11", "M21"):
            if base.verdicts[name]:
                assert bigger.verdicts[name]


# --- Lyapunov values -----------------------------------------------------------

def test_value_zero_errors():
    g = gains_for()
    V1, V2, V = lyapunov_value(np.zeros(3), np.zeros(3), np.zeros(3),
                               np.zeros(3), 0.0, g, 2.0, np.diag([1.0, 1, 1]))
    assert V1 == 0.0 and V2 == 0.0 and V == 0.0


def test_value_position_only():
    g = gains_for(k_x=16.0)
    V1, _, V = lyapunov_value(np.array([1.0, 0, 0]), np.zeros(3), np.zeros(3),
                              np.zeros(3), 0.0, g, 2.0, np.eye(3))
    assert V1 == pytest.approx(8.0)
    assert V == pytest.approx(8.0)


def test_value_weight_terms():
    g = gains_for(gw1=20.0, gv1=10.0, gw2=10.0, gv2=5.0)
    Wt = np.full((3, 2), 2.0)
    Vt = np.zeros((3, 2))
    V1, V2, _ = lyapunov_value(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
                               0.0, g, 2.0, np.eye(3),
                               weight_sq=((np.sum(Wt * Wt), np.sum(Vt * Vt)), (0.0, 0.0)))
    assert V1 == pytest.approx(np.sum(Wt * Wt) / (2 * 20.0))
    assert V2 == 0.0


def test_value_matches_matrix_formula(rng):
    # the float evaluation against the docstring formula written with @, on
    # random error states, each with a random full inertia, random gains
    # that keep V positive-definite and random weight errors
    def reference(e_x, e_v, e_R, e_Om, psi, g, m, J, weight_sq=None):
        V01 = V02 = 0.0
        if weight_sq is not None:
            (W1, V1_sq), (W2, V2_sq) = weight_sq
            V01 = W1 / (2.0 * g.adapt1.gamma_w) + V1_sq / (2.0 * g.adapt1.gamma_v)
            V02 = W2 / (2.0 * g.adapt2.gamma_w) + V2_sq / (2.0 * g.adapt2.gamma_v)
        V1 = (g.k_x / 2.0 * e_x @ e_x + m / 2.0 * e_v @ e_v + m * g.c1 * e_x @ e_v + V01)
        V2 = 0.5 * e_Om @ J @ e_Om + g.k_R * psi + g.c2 * e_R @ J @ e_Om + V02
        return V1, V2, V1 + V2

    for _ in range(1000):
        Q = random_rotation(rng)
        lam = rng.uniform(0.004, 0.02, 3)
        J = Q @ np.diag(lam) @ Q.T
        J = 0.5 * (J + J.T)
        m = rng.uniform(0.3, 3.0)
        k_x, k_v, k_R, k_Om, gw1, gv1, gw2, gv2 = rng.uniform(0.5, 20.0, 8)
        g = gains_for(k_x=k_x, k_v=k_v, k_R=k_R, k_Om=k_Om,
                      c1=rng.uniform(0.01, 0.9) * math.sqrt(k_x / m),
                      c2=rng.uniform(0.01, 0.9) * math.sqrt(k_R * lam.min()) / lam.max(),
                      gw1=gw1, gv1=gv1, gw2=gw2, gv2=gv2)
        e_x, e_v, e_Om = (rng.standard_normal(3) * 10.0 ** rng.uniform(-2.0, 1.0)
                          for _ in range(3))
        e_R, psi = attitude_error(random_rotation(rng), random_rotation(rng))
        e_R = np.array(e_R)
        weight_sq = tuple(tuple(rng.uniform(0.0, 4.0, 2)) for _ in range(2))
        for w in (None, weight_sq):
            ref = reference(e_x, e_v, e_R, e_Om, psi, g, m, J, w)
            args = (e_x, e_v, e_R, e_Om, psi, g, m)
            for got in (lyapunov_value(*(a.tolist() if isinstance(a, np.ndarray) else a
                                         for a in args), J.tolist(), weight_sq=w),
                        lyapunov_value(*args, J, weight_sq=w)):
                assert all(isinstance(v, float) for v in got)
                for v, r in zip(got, ref):
                    assert abs(v - r) <= 1e-14 * abs(r)


def test_value_sandwich(rng):
    # lam_min(M11) |Z11|^2 + V01 <= V1 <= lam_max(M12) |Z11|^2 + V01
    g = gains_for(k_x=16.0, c1=1.0)
    m = 2.0
    rep = build_pd_matrices(g, m, np.diag([0.02, 0.02, 0.04]),
                            BoundAssumptions(psi1=0.5))
    lo = rep.eigenvalues["M11"][0]
    hi = rep.eigenvalues["M12"][-1]
    for _ in range(200):
        e_x = rng.standard_normal(3)
        e_v = rng.standard_normal(3)
        V1, _, _ = lyapunov_value(e_x, e_v, np.zeros(3), np.zeros(3), 0.0,
                                  g, m, np.eye(3))
        z2 = e_x @ e_x + e_v @ e_v
        assert lo * z2 - 1e-9 <= V1 <= hi * z2 + 1e-9


def test_value_attitude_sandwich(rng):
    g = gains_for(k_R=8.0, c2=0.5)
    J = np.diag([0.02, 0.02, 0.04])
    psi1 = 0.9
    rep = build_pd_matrices(g, 2.0, J, BoundAssumptions(psi1=psi1))
    lo = rep.eigenvalues["M21"][0]
    hi = rep.eigenvalues["M22"][-1]
    n = 0
    while n < 100:
        R = random_rotation(rng, 1.2)
        R_c = random_rotation(rng, 1.2)
        e_R, psi = attitude_error(R, R_c)
        e_R = np.array(e_R)
        if psi > psi1:
            continue
        n += 1
        e_Om = rng.standard_normal(3)
        _, V2, _ = lyapunov_value(np.zeros(3), np.zeros(3), e_R, e_Om, psi,
                                  g, 2.0, J)
        z2 = e_R @ e_R + e_Om @ e_Om
        assert lo * z2 - 1e-9 <= V2 <= hi * z2 + 1e-9


def sandwich_gain_sets(rng, n_random=3):
    """(name, gains, m, J, assumptions) for the sandwich test: the synthetic
    config, the same with k_x = 120, and n_random feasible sets drawn around
    it (gains and learning rates scaled by 0.5-4, psi1 in [0.005, 0.05])."""
    def setup(overrides=None):
        cfg = load_config(SYNTHETIC_CONFIG, overrides=overrides)
        return (cfg.gains, cfg.get("quad", "mass"), cfg.get("quad", "inertia"),
                cfg.assumptions)

    sets = [("synthetic", *setup()), ("synthetic k_x=120", *setup({("gains", "k_x"): "120"}))]
    g, m, J, a = sets[0][1:]
    base = np.array([g.k_x, g.k_v, g.k_R, g.k_Omega, g.c1, g.c2,
                     g.adapt1.kappa, g.adapt2.kappa, g.adapt1.gamma_w,
                     g.adapt1.gamma_v, g.adapt2.gamma_w, g.adapt2.gamma_v])
    for _ in range(200):
        if len(sets) == 2 + n_random:
            break
        gains = gains_for(*(base * np.exp(rng.uniform(math.log(0.5), math.log(4.0), 12))))
        a_r = dataclasses.replace(a, psi1=rng.uniform(0.005, 0.05))
        if build_pd_matrices(gains, m, J, a_r).feasible:
            sets.append((f"random {len(sets) - 1}", gains, m, J, a_r))
    assert len(sets) == 2 + n_random
    return sets


def test_quadratic_forms_bracket_lyapunov_value(rng):
    """Each sandwich matrix bounds the piece of V it is built for.

    Sampled over error states with psi < psi1 and weight errors inside their
    bounds (||W~|| <= 2 W_max, ||V~|| <= 2 V_max), on gain sets the report
    calls feasible, with z1 = (|e_x|, |e_v|) and z2 = (|e_R|, |e_Om|):
    - M11 and M12 bracket V1, and M21 and M22 bracket V2, weight terms
      omitted;
    - N1p bounds V1 and N2p bounds V2 with the weight terms, in z1 and z2
      extended by ||Z~i|| = sqrt(||W~i||^2 + ||V~i||^2);
    - N3p bounds V at e_Om = 0 with exact weights, in (|e_x|, |e_v|, |e_R|).
    The N'_i bounds are what make nu = min lam_min(N_i) / lam_max(N'_i) a
    decay rate.  Every ratio lower / upper must stay at or below 1.
    """
    def q(M, z):
        return np.einsum("ni,ij,nj->n", z, M, z)

    n = 2000
    for name, gains, m, J, a in sandwich_gain_sets(rng):
        rep = build_pd_matrices(gains, m, J, a)
        assert rep.feasible, name
        e_x, e_v, e_Om = (rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-2.0, 1.0, (n, 1))
                          for _ in range(3))
        # a rotation by theta about a unit axis u: psi = 1 - cos(theta) and
        # e_R = sin(theta) u, with theta below the psi = psi1 angle
        theta = rng.uniform(0.0, math.acos(1.0 - a.psi1), n)
        u = rng.standard_normal((n, 3))
        e_R = np.sin(theta)[:, None] * u / np.linalg.norm(u, axis=1, keepdims=True)
        psi = 2.0 * np.sin(0.5 * theta) ** 2
        bounds = 2.0 * np.array([a.W_max1, a.V_max1, a.W_max2, a.V_max2])
        weight_sq = (rng.uniform(size=(n, 4)) * bounds) ** 2

        V = np.array([
            lyapunov_value(e_x[k], e_v[k], e_R[k], e_Om[k], psi[k], gains, m, J)[:2]
            + lyapunov_value(e_x[k], e_v[k], e_R[k], e_Om[k], psi[k], gains, m, J,
                             weight_sq=(weight_sq[k, :2], weight_sq[k, 2:]))[:2]
            + lyapunov_value(e_x[k], e_v[k], e_R[k], np.zeros(3), psi[k], gains, m, J)[2:]
            for k in range(n)])
        V1t, V2t, V1, V2, V0 = V.T
        nx, nv, nR, nOm = (np.linalg.norm(e, axis=1) for e in (e_x, e_v, e_R, e_Om))
        Z1 = np.sqrt(weight_sq[:, 0] + weight_sq[:, 1])
        Z2 = np.sqrt(weight_sq[:, 2] + weight_sq[:, 3])
        z1, z2 = np.column_stack((nx, nv)), np.column_stack((nR, nOm))

        mat = rep.matrices
        ratios = {"M11": q(mat["M11"], z1) / V1t, "M12": V1t / q(mat["M12"], z1),
                  "M21": q(mat["M21"], z2) / V2t, "M22": V2t / q(mat["M22"], z2),
                  "N1p": V1 / q(mat["N1p"], np.column_stack((nx, nv, Z1))),
                  "N2p": V2 / q(mat["N2p"], np.column_stack((nR, nOm, Z2))),
                  "N3p": V0 / q(mat["N3p"], np.column_stack((nx, nv, nR)))}
        worst = {key: float(r.max()) for key, r in ratios.items()}
        assert max(worst.values()) <= 1.0 + 1e-12, (name, worst)


# --- ultimate bound -------------------------------------------------------------

def config_report(name):
    cfg = load_config(str(CONFIG_DIR / name))
    return build_pd_matrices(cfg.gains, cfg.quad.m, cfg.quad.J, cfg.assumptions)


def test_radius_is_C5_over_nu():
    # the synthetic gains clear every check: the radius is C5 / nu exactly
    report = config_report("synthetic.ini")
    assert report.nu > 0.0
    assert report.radius == report.C5 / report.nu
    assert report.radius == pytest.approx(594.821, rel=1e-6)


def test_radius_inf_when_nu_not_positive():
    # the baseline gains leave a decay matrix indefinite (nu = -4.92): no
    # residual set is certified, and the radius is inf
    report = config_report("baseline.ini")
    assert report.nu == pytest.approx(-4.92, rel=1e-3)
    assert report.radius == math.inf


def test_set_d_functional_weighting():
    val = set_d_functional(np.array([1.0, 0, 0]), np.zeros(3), np.zeros(3),
                           np.zeros(3), 4.0, 9.0, 2.0, 3.0)
    assert val == pytest.approx(1.0 + 2.0 + 3.0)


# --- misc diagnostics -----------------------------------------------------------

def test_thrust_mismatch_vanishes_when_aligned(rng):
    R = random_rotation(rng, 0.5)
    assert np.allclose(thrust_mismatch_term(5.0, R, R), 0.0, atol=1e-12)


def test_thrust_mismatch_definition(rng):
    R = random_rotation(rng, 0.3)
    R_c = random_rotation(rng, 0.3)
    f = 3.7
    align = (R_c[:, 2] @ R[:, 2])
    expected = f / align * (align * R[:, 2] - R_c[:, 2])
    assert np.allclose(thrust_mismatch_term(f, R, R_c), expected)


def test_report_serialization():
    gains, m, J, a = synthetic_reference_setup()
    rep = build_pd_matrices(gains, m, J, a)
    text = format_report(rep)
    for token in ("c1_check: pass", "N3_positive_definite", "nu:",
                  "bound_radius:", "C5:", "note_C5_2:"):
        assert token in text
    # structured key: value lines only
    for line in text.splitlines():
        assert ": " in line


def test_report_keys_unique():
    gains, m, J, a = synthetic_reference_setup()
    keys = [line.split(": ", 1)[0]
            for line in format_report(build_pd_matrices(gains, m, J, a)).splitlines()]
    assert len(keys) == len(set(keys))
    assert "C5" in keys


def test_assumptions_reject_inconsistent_constants():
    with pytest.raises(ValueError):
        BoundAssumptions(psi1=1.5)


def test_constants_take_smallest_admissible_values():
    gains, m, J, a = synthetic_reference_setup()
    c = build_pd_matrices(gains, m, J, a).constants
    # W_max1 0.2, V_max1 0.1, W_max2 = V_max2 = 0.1, eps 0.01, E_max 0.3, B4 2
    expected = {"C1_1": 0.41, "C2_1": 0.075, "C3_1": 0.075 * math.sqrt(0.05),
                "C4_1": 0.075, "C1_2": 0.21, "C2_2": 0.05,
                "C3_2": 0.05 * math.sqrt(0.02), "C4_2": 0.05 * 3.3}
    for key, value in expected.items():
        assert c[key] == pytest.approx(value, rel=1e-14), key


@pytest.mark.parametrize("key", list(SCHEMA["assumptions"]))
def test_every_assumption_moves_the_report(key):
    """Halving any [assumptions] key of the synthetic config changes the
    report (a zero bound is raised to 0.5 instead, as halving keeps it)."""
    def report(overrides=None):
        cfg = load_config(SYNTHETIC_CONFIG, overrides=overrides)
        return format_report(build_pd_matrices(
            cfg.gains, cfg.get("quad", "mass"), cfg.get("quad", "inertia"),
            cfg.assumptions))

    value = load_config(SYNTHETIC_CONFIG).get("assumptions", key)
    moved = value / 2.0 if value else 0.5
    assert report({("assumptions", key): repr(moved)}) != report()
