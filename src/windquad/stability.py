"""Gain feasibility checks, Lyapunov evaluation, and ultimate-bound reports.

Mechanizes the closed-loop analysis machinery: the two coupling-constant
inequalities, the positive-definiteness of the quadratic-form matrices that
sandwich the Lyapunov function and its decay, the convergence rate

    nu = min_i  lambda_min(N_i) / lambda_max(N'_i),

and the residual-set radius C5 / nu.  Everything here evaluates user-supplied
bound assumptions; nothing is estimated from data.

One printed-source quirk is handled explicitly and noted in reports: the
attitude-channel constant C5_2 is built from C1_2 (the printed subscript is
inconsistent with its own derivation).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNu, ValidationError

_POSITION = ("gains.k_x", "gains.c1", "quad.mass")
_ATTITUDE = ("gains.k_r", "gains.c2", "quad.inertia")
_DECAY1 = _POSITION + ("gains.k_v", "assumptions.psi1", "nn1.w_max", "nn1.v_max")
_DECAY2 = _ATTITUDE + ("gains.k_omega", "nn2.w_max", "nn2.v_max")
#: the config keys that feed each quantity build_pd_matrices requires to be
#: finite, named when one of them overflows
REPORT_INPUTS = {
    "M11": _POSITION, "M12": _POSITION,
    "M21": _ATTITUDE, "M22": _ATTITUDE + ("assumptions.psi1",),
    "N1": _DECAY1 + ("nn1.kappa", "assumptions.x_d_max", "assumptions.v_d_max"),
    "N2": _DECAY2 + ("nn2.kappa", "assumptions.e_max", "assumptions.b4"),
    "N3": _DECAY1 + ("gains.k_r", "gains.c2", "assumptions.b1", "assumptions.e_x_max"),
    "N1p": _POSITION + ("nn1.gamma_w", "nn1.gamma_v"),
    "N2p": _ATTITUDE + ("assumptions.psi1", "nn2.gamma_w", "nn2.gamma_v"),
    "N3p": _POSITION + ("gains.k_r", "assumptions.psi1"),
    "C5_1": _DECAY1 + ("nn1.kappa", "assumptions.eps1"),
    "C5_2": _DECAY2 + ("nn2.kappa", "assumptions.eps2"),
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a scalar gain inequality."""

    passed: bool
    value: float
    limit: float

    @property
    def margin(self):
        """limit - value; positive when the check passes."""
        return self.limit - self.value


def validate_c1(c1, k_x, m):
    """Position coupling constant feasibility: c1 < sqrt(k_x / m)."""
    if c1 <= 0.0 or k_x <= 0.0 or m <= 0.0:
        raise ValueError("inputs must be positive")
    limit = math.sqrt(k_x / m)
    return CheckResult(passed=c1 < limit, value=c1, limit=limit)


def validate_c2(c2, k_R, J, psi1):
    """Attitude coupling constant feasibility.

    c2 < min( sqrt(k_R lam_min(J)) / lam_max(J),
              sqrt(2 k_R / (lam_max(J) (2 - psi1))) ).
    """
    if c2 <= 0.0 or k_R <= 0.0:
        raise ValueError("inputs must be positive")
    if not psi1 < 2.0:
        raise ValueError("psi1 must be below 2")
    lam_m, lam_M = _eig_span(J)
    limit = min(math.sqrt(k_R * lam_m) / lam_M,
                math.sqrt(2.0 * k_R / (lam_M * (2.0 - psi1))))
    return CheckResult(passed=c2 < limit, value=c2, limit=limit)


@dataclass(frozen=True)
class BoundAssumptions:
    """User-supplied bounds feeding the quadratic-form matrices.

    psi1 bounds the initial attitude configuration error (in (0,1)); B1 the
    command acceleration norm; B4 the computed-attitude rate; e_x_max,
    x_d_max, v_d_max, E_max bound the position error, desired trajectory,
    and Euler-angle norm.  W_max/V_max are the per-network weight bounds;
    eps1/eps2 the approximation accuracies.  The constants C1..C4 and Z_max
    per network are not inputs: `build_pd_matrices` derives them from these
    bounds, taking the smallest values their defining inequalities allow.
    """

    psi1: float = 0.01
    B1: float = 10.0
    B4: float = 2.0
    e_x_max: float = 0.1
    x_d_max: float = 0.0
    v_d_max: float = 0.0
    E_max: float = 0.5
    eps1: float = 0.01
    eps2: float = 0.01
    W_max1: float = 1.0
    V_max1: float = 1.0
    W_max2: float = 1.0
    V_max2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.psi1 < 1.0:
            raise ValueError("psi1 must lie in (0, 1)")
        for name in ("B1", "B4", "e_x_max", "E_max", "eps1", "eps2",
                     "W_max1", "V_max1", "W_max2", "V_max2"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.x_d_max < 0.0 or self.v_d_max < 0.0:
            raise ValueError("trajectory bounds must be non-negative")

    @property
    def beta(self):
        """beta = sqrt(psi1 (2 - psi1)), the attitude-error slack factor."""
        return math.sqrt(self.psi1 * (2.0 - self.psi1))


@dataclass
class LyapunovReport:
    """Matrices, spectra, verdicts, and derived constants of one gain set."""

    matrices: dict
    eigenvalues: dict
    verdicts: dict
    constants: dict
    c1_check: CheckResult
    c2_check: CheckResult
    nu: float
    C5: float
    radius: float

    @property
    def all_positive_definite(self):
        return all(self.verdicts.values())

    @property
    def feasible(self):
        """Both coupling-constant checks pass and every matrix is positive-definite."""
        return self.c1_check.passed and self.c2_check.passed and self.all_positive_definite


def _eig_span(M):
    eig = np.linalg.eigvalsh(M)
    return float(eig[0]), float(eig[-1])


def build_pd_matrices(gains, m, J, assumptions):
    """Construct every quadratic-form matrix and report spectra and verdicts.

    The primed matrices bound the Lyapunov function from above, the unprimed
    ones bound its decay; nu is the smallest eigenvalue ratio.  A verdict is
    recorded per matrix; nu and the radius are meaningful only when every
    decay matrix is positive-definite (otherwise nu <= 0 is reported as-is).

    Raises
    ------
    ValidationError
        If a matrix entry, or C5_i with positive decay gains, overflows; the
        message names the config keys in REPORT_INPUTS.
    """
    a = assumptions
    lam_mJ, lam_MJ = _eig_span(J)
    beta = a.beta
    k_x, k_v, k_R, k_Om = gains.k_x, gains.k_v, gains.k_R, gains.k_Omega
    c1, c2 = gains.c1, gains.c2
    kap1, kap2 = gains.adapt1.kappa, gains.adapt2.kappa

    # C1..C4 per network at the smallest values their inequalities allow
    Z_max1 = math.hypot(a.W_max1, a.V_max1)
    Z_max2 = math.hypot(a.W_max2, a.V_max2)
    C1_1 = 2.0 * a.W_max1 + a.eps1
    C2_1 = 0.25 * (a.V_max1 + a.W_max1)
    C3_1 = C2_1 * Z_max1
    C4_1 = C2_1 * (1.0 + a.x_d_max + a.v_d_max)
    C1_2 = 2.0 * a.W_max2 + a.eps2
    C2_2 = 0.25 * (a.V_max2 + a.W_max2)
    C3_2 = C2_2 * Z_max2
    C4_2 = C2_2 * (1.0 + a.E_max + a.B4)

    k_xb = k_x * (1.0 - beta) - C3_1
    k_vb = k_v * (1.0 - beta) - m * c1 - C3_1
    k_xv = c1 * ((1.0 + beta) * k_v + C3_1) + C3_1
    k_Omb = k_Om - c2 * lam_MJ - C3_2
    k_ROm = c2 * (k_Om + C3_2)

    # inf marks a decay gain that is not positive; products, not ** 2,
    # which raises OverflowError where a product gives inf
    decays1, decays2 = k_xb > 0.0 and k_vb > 0.0, k_Omb > 0.0
    C5_1 = (c1 * C1_1 * C1_1 / (2.0 * k_xb) + C1_1 * C1_1 / (2.0 * k_vb)
            + kap1 * Z_max1 * Z_max1 / 2.0) if decays1 else float("inf")
    C5_2 = (c2 * C1_2 * C1_2 / (2.0 * k_R) + C1_2 * C1_2 / (2.0 * k_Omb)
            + kap2 * Z_max2 * Z_max2 / 2.0) if decays2 else float("inf")
    C5 = C5_1 + C5_2

    M11 = 0.5 * np.array([[k_x, -m * c1], [-m * c1, m]])
    M12 = 0.5 * np.array([[k_x, m * c1], [m * c1, m]])
    M21 = 0.5 * np.array([[k_R, -c2 * lam_MJ], [-c2 * lam_MJ, lam_mJ]])
    M22 = 0.5 * np.array([[2.0 * k_R / (2.0 - a.psi1), c2 * lam_MJ],
                          [c2 * lam_MJ, lam_MJ]])

    N1 = np.array([
        [c1 * k_xb / 2.0, -k_xv / 2.0, -c1 * C4_1],
        [-k_xv / 2.0, k_vb / 2.0, -C4_1],
        [-c1 * C4_1, -C4_1, kap1],
    ])
    N2 = np.array([
        [c2 * k_R / 2.0, -k_ROm, -c2 * C4_2],
        [-k_ROm, k_Omb, -C4_2],
        [-c2 * C4_2, -C4_2, kap2],
    ])
    N3 = np.array([
        [c1 * k_xb / 2.0, -k_xv / 2.0, -c1 * a.B1],
        [-k_xv / 2.0, c1 * k_vb / 2.0, -(a.B1 + k_x * a.e_x_max)],
        [-c1 * a.B1, -(a.B1 + k_x * a.e_x_max), c2 * k_R / 2.0],
    ])

    # N1p, N2p: the upper sandwich blocks of V1, V2 bordered by 1/(2 min gamma),
    # whose ||Z~||^2 form bounds that network's weight term; N3p acts on N3's
    # (|e_x|, |e_v|, |e_R|): M12 bordered by M22's e_R entry k_R / (2 - psi1)
    N1p, N2p, N3p = (np.pad(M, (0, 1)) for M in (M12, M22, M12))
    N1p[2, 2] = 0.5 / min(gains.adapt1.gamma_w, gains.adapt1.gamma_v)
    N2p[2, 2] = 0.5 / min(gains.adapt2.gamma_w, gains.adapt2.gamma_v)
    N3p[2, 2] = M22[0, 0]

    matrices = {"M11": M11, "M12": M12, "M21": M21, "M22": M22,
                "N1": N1, "N2": N2, "N3": N3,
                "N1p": N1p, "N2p": N2p, "N3p": N3p}
    # an entry that overflowed makes eigvalsh fail to converge, and an
    # overflowed C5_i (with positive decay gains) an infinite radius
    finite = dict(matrices, C5_1=C5_1 if decays1 else 0.0, C5_2=C5_2 if decays2 else 0.0)
    for name, value in finite.items():
        if not np.isfinite(value).all():
            raise ValidationError(f"gain report: {name} is not finite; it is built from "
                                  f"{', '.join(REPORT_INPUTS[name])}")
    eigenvalues = {name: np.linalg.eigvalsh(M) for name, M in matrices.items()}
    verdicts = {name: bool(eigenvalues[name][0] > 0.0) for name in matrices}

    ratios = [eigenvalues["N1"][0] / eigenvalues["N1p"][-1],
              eigenvalues["N2"][0] / eigenvalues["N2p"][-1],
              eigenvalues["N3"][0] / eigenvalues["N3p"][-1]]
    nu = float(min(ratios))
    radius = C5 / nu if nu > 0.0 else float("inf")

    constants = {"beta": beta, "k_xb": k_xb, "k_vb": k_vb, "k_xv": k_xv,
                 "k_Omb": k_Omb, "k_ROm": k_ROm,
                 "C1_1": C1_1, "C2_1": C2_1, "C3_1": C3_1, "C4_1": C4_1,
                 "C1_2": C1_2, "C2_2": C2_2, "C3_2": C3_2, "C4_2": C4_2,
                 "C5_1": C5_1, "C5_2": C5_2, "C5": C5,
                 "lam_m_J": lam_mJ, "lam_M_J": lam_MJ}

    return LyapunovReport(
        matrices=matrices, eigenvalues=eigenvalues, verdicts=verdicts,
        constants=constants,
        c1_check=validate_c1(gains.c1, k_x, m),
        c2_check=validate_c2(gains.c2, k_R, J, a.psi1),
        nu=nu, C5=C5, radius=radius)


def lyapunov_value(e_x, e_v, e_R, e_Omega, psi, gains, m, J,
                   weight_sq=None):
    """Lyapunov function pieces (V1, V2, V) at one error state.

    V1 = k_x/2 ||e_x||^2 + m/2 ||e_v||^2 + m c1 e_x . e_v (+ weight term)
    V2 = 1/2 e_Om . J e_Om + k_R psi + c2 e_R . J e_Om    (+ weight term)

    `weight_sq`, when the ideal weights are known (synthetic-truth mode), is
    ((||W~1||_F^2, ||V~1||_F^2), (||W~2||_F^2, ||V~2||_F^2)), and network i
    adds the term ||W~i||_F^2 / (2 gamma_w) + ||V~i||_F^2 / (2 gamma_v).
    Omitted, the weight terms are dropped and the value covers tracking
    errors only.

    The errors are 3-sequences of floats and J three rows of three floats,
    or arrays; the value is computed in float arithmetic and returned as
    three floats.  Each error may also be a sequence of columns, one entry
    per sample (the simulation passes the recorded telemetry blocks
    transposed, psi as a column, and each weight term as a column): every
    `+` and `*` then acts elementwise, in the same order and with the same
    float64 rounding, and the three values are returned as arrays whose
    entries are bit for bit the value at each sample.
    """
    V01 = V02 = 0.0
    if weight_sq is not None:
        V01, V02 = (W_sq / (2.0 * a.gamma_w) + V_sq / (2.0 * a.gamma_v)
                    for (W_sq, V_sq), a in zip(weight_sq, (gains.adapt1, gains.adapt2)))

    (x1, x2, x3), (v1, v2, v3) = e_x, e_v
    (r1, r2, r3), (w1, w2, w3) = e_R, e_Omega
    (J11, J12, J13), (J21, J22, J23), (J31, J32, J33) = J
    # J e_Omega
    h1 = J11 * w1 + J12 * w2 + J13 * w3
    h2 = J21 * w1 + J22 * w2 + J23 * w3
    h3 = J31 * w1 + J32 * w2 + J33 * w3
    V1 = (0.5 * gains.k_x * (x1 * x1 + x2 * x2 + x3 * x3)
          + 0.5 * m * (v1 * v1 + v2 * v2 + v3 * v3)
          + m * gains.c1 * (x1 * v1 + x2 * v2 + x3 * v3) + V01)
    V2 = (0.5 * (w1 * h1 + w2 * h2 + w3 * h3) + gains.k_R * psi
          + gains.c2 * (r1 * h1 + r2 * h2 + r3 * h3) + V02)
    V = V1 + V2
    if np.ndim(V):
        return V1, V2, V
    return float(V1), float(V2), float(V)


def ultimate_bound(nu, C5):
    """Radius C5 / nu of the residual set.

    Raises
    ------
    DegenerateNu
        If nu <= 0.
    """
    if nu <= 0.0:
        raise DegenerateNu(f"nu = {nu:.3e} is not positive")
    return C5 / nu


def set_d_functional(e_x, e_v, e_R, e_Omega, Z_tilde_sq1, Z_tilde_sq2,
                     gamma1, gamma2):
    """Weighted error norm whose sublevel set is the residual set.

    ||e_x||^2 + ||e_v||^2 + ||e_R||^2 + ||e_Om||^2
    + ||Z~1||^2 / gamma1 + ||Z~2||^2 / gamma2,

    with gamma_i = max of that network's two learning rates and
    ||Z~i||^2 = ||W~i||_F^2 + ||V~i||_F^2.
    """
    sq = (float(np.dot(e_x, e_x)) + float(np.dot(e_v, e_v))
          + float(np.dot(e_R, e_R)) + float(np.dot(e_Omega, e_Omega)))
    return sq + Z_tilde_sq1 / gamma1 + Z_tilde_sq2 / gamma2


def format_report(report):
    """Render a report as structured 'key: value' text, 6 significant digits."""
    lines = []

    def fmt(x):
        return f"{x:.6g}"

    lines.append(f"c1_check: {'pass' if report.c1_check.passed else 'FAIL'} "
                 f"(value {fmt(report.c1_check.value)}, limit {fmt(report.c1_check.limit)})")
    lines.append(f"c2_check: {'pass' if report.c2_check.passed else 'FAIL'} "
                 f"(value {fmt(report.c2_check.value)}, limit {fmt(report.c2_check.limit)})")
    for name in sorted(report.verdicts):
        eig = report.eigenvalues[name]
        lines.append(f"{name}_positive_definite: {'pass' if report.verdicts[name] else 'FAIL'} "
                     f"(min_eig {fmt(eig[0])}, max_eig {fmt(eig[-1])})")
    for key in sorted(report.constants):
        lines.append(f"{key}: {fmt(report.constants[key])}")
    lines.append(f"nu: {fmt(report.nu)}")
    lines.append(f"bound_radius: {fmt(report.radius)}")
    lines.append("note_C5_2: C5_2 built from C1_2 (printed subscript inconsistent "
                 "with derivation)")
    return "\n".join(lines)
