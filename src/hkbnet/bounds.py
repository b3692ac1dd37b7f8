"""Analytic coupling-strength conditions for bounded network synchronization.

Two independent certificates are evaluated:

* a contraction-theory window (c_lo, c_hi) for full-state coupling on an
  unweighted complete graph (decided by is_complete_unweighted), built from
  node-averaged parameters and bounds on the virtual state, and
* a Lyapunov-style minimum coupling c_bar with an asymptotic error bound
  epsilon.  quad_hypotheses alone decides where it applies: a connected graph,
  a common gamma (each within GAMMA_RTOL * max(1, |gamma_1|) of the first)
  and a spectral gap (lambda2 above graph.ZERO_EIGENVALUE_TOL); bounds.csv
  has the Lyapunov rows only when all three hold.

Both are sufficient conditions only; simulations routinely synchronize well
below them, so infeasible or conservative outcomes are reported as values
(an empty window, an epsilon of None), never raised as errors: `hkbnet
bounds` exits 0 on every config RunConfig accepts, unless it diverges.
bounds_rows evaluates both for one run, at its pilot trajectory's extrema,
as the rows of bounds.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import FullState, OscillatorParams, Trajectory, state_extrema
from .graph import ZERO_EIGENVALUE_TOL, Topology, neighbor_lambda2

GAMMA_RTOL = 1e-9


@dataclass(frozen=True)
class BoundsOptions:
    """Inputs for the bound evaluation attached to a run.

    quad marks an explicit request for the Lyapunov certificate; it only
    affects validation diagnostics, since bounds evaluation reports the
    certificate whenever its hypotheses hold anyway.
    """

    quad: bool = False
    p11: float = 1.0
    p22: float = 1.0
    w11: float = 1e-6
    w22: float | None = None
    gamma1: float = 1.0
    gamma2: float = 1.0
    z1_max: float | None = None
    z2_max: float | None = None

    def __post_init__(self):
        for name in ("p11", "p22", "w11", "w22", "gamma1", "gamma2", "z1_max", "z2_max"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ContractionWindow:
    """Coupling window (c_lo, c_hi) certifying bounded synchronization via contraction.

    Only valid for full-state coupling on an unweighted complete graph
    (is_complete_unweighted).  feasible is False when the window is empty,
    which merely means the sufficient condition is silent.
    """

    c_lo: float
    c_hi: float
    feasible: bool


@dataclass(frozen=True)
class QuadCertificate:
    """Lyapunov certificate: minimum coupling c_bar and asymptotic error bound epsilon.

    epsilon is absent when no coupling strength was supplied, or when the
    side condition fails at the supplied strength.
    """

    c_bar: float
    epsilon: float | None


def contraction_window(
    params: Sequence[OscillatorParams],
    z1_max: float,
    z2_max: float,
) -> ContractionWindow:
    """Coupling window from the contraction argument on the virtual system.

    The virtual system takes the node-averaged alpha, gamma and omega.
    z1_max and z2_max bound the virtual position and velocity; in practice
    they are taken from a pilot simulation of the same configuration.
    """
    n_nodes = len(params)
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if z1_max < 0.0 or z2_max < 0.0:
        raise ValueError("state bounds must be nonnegative")
    alpha = float(np.mean([p.alpha for p in params]))
    gamma = float(np.mean([p.gamma for p in params]))
    omega = float(np.mean([p.omega for p in params]))
    threshold = 2.0 * alpha * z1_max * z2_max + omega ** 2 + gamma
    factor = (n_nodes - 1) / n_nodes
    c_lo = factor * threshold
    c_hi = factor
    return ContractionWindow(c_lo=c_lo, c_hi=c_hi, feasible=c_lo < c_hi)


def is_complete_unweighted(topology: Topology) -> bool:
    """Whether every pair of distinct nodes has weight 1, the contraction window's hypothesis."""
    off_diagonal = ~np.eye(topology.n, dtype=bool)
    return bool(np.all(topology.weights[off_diagonal] == 1.0))


def m_bar(params: Sequence[OscillatorParams], pos_max: float, vel_max: float) -> float:
    """Uniform bound on the affine remainder of the node fields.

    Built from the largest |alpha|, |beta|, |omega| over the nodes and the
    given state bounds: (1 + a_M p^2 + b_M v^2) v + w_M^2 p.
    """
    if pos_max < 0.0 or vel_max < 0.0:
        raise ValueError("state bounds must be nonnegative")
    alpha_m = max(abs(p.alpha) for p in params)
    beta_m = max(abs(p.beta) for p in params)
    omega_m = max(abs(p.omega) for p in params)
    return (1.0 + alpha_m * pos_max ** 2 + beta_m * vel_max ** 2) * vel_max + omega_m ** 2 * pos_max


def common_gamma(params: Sequence[OscillatorParams]) -> float | None:
    """gamma_1 if every node's gamma is within GAMMA_RTOL * max(1, |gamma_1|) of it, else None."""
    gamma = params[0].gamma
    tol = GAMMA_RTOL * max(1.0, abs(gamma))
    return gamma if all(abs(q.gamma - gamma) <= tol for q in params) else None


def has_spectral_gap(lambda2: float) -> bool:
    """Whether lambda2 is nonzero, the other hypothesis of the Lyapunov certificate."""
    return lambda2 > ZERO_EIGENVALUE_TOL


def quad_hypotheses(topology: Topology, params: Sequence[OscillatorParams]) -> tuple[float | None, list[str]]:
    """lambda2 (None on a disconnected graph) and the Lyapunov hypotheses that fail.

    The certificate applies when lambda2 is not None and nothing fails.
    """
    lambda2 = neighbor_lambda2(topology) if topology.is_connected() else None
    failures = []
    if common_gamma(params) is None:
        failures.append("gamma differs across nodes")
    if lambda2 is not None and not has_spectral_gap(lambda2):
        failures.append(f"lambda2 = {lambda2:.3g} leaves no spectral gap")
    return lambda2, failures


def _shapes(lambda2: float, gamma: float, p, w11: float, coupling_shape, w22: float | None):
    """Check lambda2 and the shape matrices; return p, shape and w22 (default gamma * p22)."""
    pd = np.asarray(p, dtype=float)
    gd = np.asarray(coupling_shape, dtype=float)
    if pd.shape != (2,) or gd.shape != (2,):
        raise ValueError("p and coupling_shape must each hold two diagonal entries")
    if np.any(pd <= 0.0) or w11 <= 0.0:
        raise ValueError("p and w11 must be positive")
    if np.any(gd <= 0.0):
        raise ValueError("coupling shape must be positive definite here")
    if not has_spectral_gap(lambda2):
        raise ValueError("lambda2 is zero; no coupling bound exists")
    return pd, gd, (w22 if w22 is not None else gamma * pd[1])


def quad_cbar_direct(
    lambda2: float,
    gamma_avg: float,
    p,
    w11: float,
    coupling_shape=(1.0, 1.0),
    w22: float | None = None,
) -> float:
    """Minimum coupling strength at user-supplied shape matrices.

    The numerator is max(w11, w22) with w22 defaulting to gamma_avg * p22;
    an explicit w22 is taken at face value.  The result is invariant under a
    common positive rescaling of p, w11 and w22.
    """
    pd, gd, w22 = _shapes(lambda2, gamma_avg, p, w11, coupling_shape, w22)
    return max(w11, w22) / (lambda2 * float((pd * gd).min()))


def quad_epsilon_direct(
    c: float,
    lambda2: float,
    gamma_avg: float,
    p,
    w11: float,
    coupling_shape,
    m_bound: float,
    n_nodes: int,
    w22: float | None = None,
) -> float | None:
    """Asymptotic tracking-error bound at coupling strength c.

    Requires the side condition c * lambda2 * min(p * shape) > max(w11, w22);
    otherwise the certificate says nothing and the result is None.
    """
    if m_bound < 0.0:
        raise ValueError("remainder bound must be nonnegative")
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    pd, gd, w22 = _shapes(lambda2, gamma_avg, p, w11, coupling_shape, w22)
    gap = c * lambda2 * float((pd * gd).min()) - max(w11, w22)
    return np.sqrt(n_nodes) * m_bound * float(pd.max()) / gap if gap > 0.0 else None


def quad_certificate(
    lambda2: float, params: Sequence[OscillatorParams], options: BoundsOptions, c: float | None, m_bound: float
) -> QuadCertificate:
    """Full Lyapunov certificate for a network with spectral gap lambda2.

    Rejects nodes without a common gamma (the decomposition behind the
    certificate needs one shared linear term), then evaluates
    quad_cbar_direct and quad_epsilon_direct at that gamma and the shape
    matrices of options.  epsilon, from the remainder bound m_bound (m_bar
    at a pilot run's extrema), is filled in when c is given and the side
    condition holds at c.
    """
    gamma = common_gamma(params)
    if gamma is None:
        raise ValueError("certificate requires identical gamma across nodes")
    p = (options.p11, options.p22)
    shape = (options.gamma1, options.gamma2)
    c_bar = quad_cbar_direct(lambda2, gamma, p, options.w11, shape, options.w22)
    if c is None:
        return QuadCertificate(c_bar=c_bar, epsilon=None)
    epsilon = quad_epsilon_direct(c, lambda2, gamma, p, options.w11, shape, m_bound, len(params), options.w22)
    return QuadCertificate(c_bar=c_bar, epsilon=epsilon)


def bounds_rows(config, traj: Trajectory) -> tuple[tuple[str, float], ...]:
    """Evaluate both certificates for the RunConfig config as (quantity, value) rows.

    Infeasible or inapplicable outcomes become 0/1 flag rows, never
    exceptions: the certificates are sufficient conditions and the bundled
    scenarios intentionally operate below them.  State bounds default to the
    extrema of the pilot trajectory traj, m_bar is taken at those extrema,
    and epsilon needs a FullState coupling strength.  (config is not
    annotated: hkbnet.config imports this module.)
    """
    extrema = state_extrema(traj)
    z1 = config.bounds.z1_max if config.bounds.z1_max is not None else extrema.pos_max
    z2 = config.bounds.z2_max if config.bounds.z2_max is not None else extrema.vel_max
    remainder = m_bar(config.params, extrema.pos_max, extrema.vel_max)
    rows: list[tuple[str, float]] = [
        ("p_M", extrema.pos_max),
        ("v_M", extrema.vel_max),
        ("m_bar", remainder),
    ]

    window = contraction_window(config.params, z1, z2)
    rows += [
        ("c_lo", window.c_lo),
        ("c_hi", window.c_hi),
        ("contraction_feasible", float(window.feasible)),
        ("contraction_assumes_complete_unweighted", 1.0),
        ("topology_is_complete_unweighted", float(is_complete_unweighted(config.topology))),
    ]

    lam2, failures = quad_hypotheses(config.topology, config.params)
    if lam2 is not None:
        rows.append(("lambda2", lam2))
    quad_ok = lam2 is not None and not failures
    rows.append(("quad_applicable", float(quad_ok)))
    if quad_ok:
        c = config.protocol.c if isinstance(config.protocol, FullState) else None
        cert = quad_certificate(lam2, config.params, config.bounds, c, remainder)
        rows.append(("c_bar", cert.c_bar))
        rows.append(("epsilon_applicable", float(cert.epsilon is not None)))
        if cert.epsilon is not None:
            rows.append(("epsilon", cert.epsilon))
    return tuple(rows)
