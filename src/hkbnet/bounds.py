"""Analytic coupling-strength conditions for bounded network synchronization.

Two independent certificates are evaluated:

* a contraction-theory window (c_lo, c_hi) for full-state coupling on an
  unweighted complete graph (decided by is_complete_unweighted), built from
  node-averaged parameters and bounds on the virtual state, and
* a Lyapunov-style minimum coupling c_bar with an asymptotic error bound
  epsilon.  Its two hypotheses are decided here only: common_gamma (every
  node's gamma within GAMMA_RTOL * max(1, |gamma_1|) of the first's) and
  has_spectral_gap (lambda2 above graph.ZERO_EIGENVALUE_TOL); bounds.csv
  has the Lyapunov rows only when both hold.

Both are sufficient conditions only; simulations routinely synchronize well
below them, so infeasible or conservative outcomes are reported as values
(an empty window, an epsilon of None), never raised as errors: `hkbnet
bounds` exits 0 on every config RunConfig accepts, unless it diverges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import OscillatorParams
from .graph import ZERO_EIGENVALUE_TOL, Topology

GAMMA_RTOL = 1e-9


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

    epsilon is absent when no coupling strength or state bounds were
    supplied, or when the side condition fails at the supplied strength.
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
    lambda2: float,
    params: Sequence[OscillatorParams],
    p=(1.0, 1.0),
    w11: float = 1e-6,
    coupling_shape=(1.0, 1.0),
    c: float | None = None,
    pos_max: float | None = None,
    vel_max: float | None = None,
    w22: float | None = None,
) -> QuadCertificate:
    """Full Lyapunov certificate for a network with spectral gap lambda2.

    Rejects nodes without a common gamma (the decomposition behind the
    certificate needs one shared linear term), then evaluates
    quad_cbar_direct and quad_epsilon_direct at that gamma.  epsilon is
    filled in when a coupling strength c and the state bounds pos_max and
    vel_max (typically measured from a pilot run, for m_bar) are given and
    the side condition holds at c.
    """
    gamma = common_gamma(params)
    if gamma is None:
        raise ValueError("certificate requires identical gamma across nodes")
    c_bar = quad_cbar_direct(lambda2, gamma, p, w11, coupling_shape, w22)
    epsilon = None
    if c is not None and pos_max is not None and vel_max is not None:
        m_bound = m_bar(params, pos_max, vel_max)
        epsilon = quad_epsilon_direct(c, lambda2, gamma, p, w11, coupling_shape, m_bound, len(params), w22)
    return QuadCertificate(c_bar=c_bar, epsilon=epsilon)
