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


class InvalidBoundError(ValueError):
    """A state bound fed into a certificate is negative."""


class UndefinedBoundError(ValueError):
    """The topology gives no spectral gap, so no coupling bound exists."""


class BoundInapplicableError(ValueError):
    """The certificate's hypotheses fail for these inputs (not a numeric failure)."""


@dataclass(frozen=True)
class AveragedParams:
    """Arithmetic means of the node parameters, used by the virtual system."""

    alpha: float
    beta: float
    gamma: float
    omega: float

    @classmethod
    def from_nodes(cls, params: Sequence[OscillatorParams]) -> "AveragedParams":
        if not params:
            raise ValueError("need at least one parameter set")
        return cls(
            alpha=float(np.mean([p.alpha for p in params])),
            beta=float(np.mean([p.beta for p in params])),
            gamma=float(np.mean([p.gamma for p in params])),
            omega=float(np.mean([p.omega for p in params])),
        )


@dataclass(frozen=True)
class ContractionWindow:
    """Coupling window certifying bounded synchronization via contraction.

    Only valid for full-state coupling on an unweighted complete graph of
    n_nodes nodes (is_complete_unweighted); large_n_* gives the limit window
    as the node count grows.  feasible is False when the window is empty, which merely means the
    sufficient condition is silent.
    """

    c_lo: float
    c_hi: float
    feasible: bool
    large_n_c_lo: float
    large_n_c_hi: float
    large_n_feasible: bool
    n_nodes: int


@dataclass(frozen=True, eq=False)
class QuadCertificate:
    """Lyapunov certificate: shape matrices, minimum coupling, error bound.

    p and w are the diagonals of the 2x2 shape matrices; epsilon is absent
    when no coupling strength was supplied or the side condition fails at
    the supplied one.
    """

    p: np.ndarray
    w: np.ndarray
    coupling_shape: np.ndarray
    lambda2: float
    c_bar: float
    epsilon: float | None
    m_bound: float | None


def contraction_window(
    avg: AveragedParams,
    z1_max: float,
    z2_max: float,
    n_nodes: int,
) -> ContractionWindow:
    """Coupling window from the contraction argument on the virtual system.

    z1_max and z2_max bound the virtual position and velocity; in practice
    they are taken from a pilot simulation of the same configuration.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if z1_max < 0.0 or z2_max < 0.0:
        raise InvalidBoundError("state bounds must be nonnegative")
    threshold = 2.0 * avg.alpha * z1_max * z2_max + avg.omega ** 2 + avg.gamma
    factor = (n_nodes - 1) / n_nodes
    c_lo = factor * threshold
    c_hi = factor
    return ContractionWindow(
        c_lo=c_lo,
        c_hi=c_hi,
        feasible=c_lo < c_hi,
        large_n_c_lo=threshold,
        large_n_c_hi=1.0,
        large_n_feasible=threshold < 1.0,
        n_nodes=n_nodes,
    )


def is_complete_unweighted(topology: Topology) -> bool:
    """Whether every pair of distinct nodes has weight 1, the contraction window's hypothesis."""
    off_diagonal = ~np.eye(topology.n, dtype=bool)
    return bool(np.all(topology.weights[off_diagonal] == 1.0))


def virtual_jacobian(z, avg: AveragedParams, c_hat: float, n_nodes: int) -> np.ndarray:
    """Jacobian of the averaged virtual system at virtual state z = (z1, z2).

    c_hat is the per-neighbor coupling strength c / (n_nodes - 1) of the
    complete-graph full-state protocol.
    """
    z1 = float(z[0])
    z2 = float(z[1])
    cn = c_hat * n_nodes
    return np.array(
        [
            [-cn, 1.0],
            [
                -(2.0 * avg.alpha * z1 * z2 + avg.omega ** 2),
                -avg.alpha * z1 * z1 - 3.0 * avg.beta * z2 * z2 - cn + avg.gamma,
            ],
        ]
    )


def m_bar(params: Sequence[OscillatorParams], pos_max: float, vel_max: float) -> float:
    """Uniform bound on the affine remainder of the node fields.

    Built from the largest |alpha|, |beta|, |omega| over the nodes and the
    given state bounds: (1 + a_M p^2 + b_M v^2) v + w_M^2 p.
    """
    if pos_max < 0.0 or vel_max < 0.0:
        raise InvalidBoundError("state bounds must be nonnegative")
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
        raise BoundInapplicableError("coupling shape must be positive definite here")
    if not has_spectral_gap(lambda2):
        raise UndefinedBoundError("lambda2 is zero; no coupling bound exists")
    return pd, gd, (w22 if w22 is not None else gamma * pd[1])


def _cbar(lambda2: float, pd: np.ndarray, gd: np.ndarray, top: float) -> float:
    return top / (lambda2 * float((pd * gd).min()))


def _epsilon(c, lambda2, pd, gd, top, m_bound, n_nodes) -> float | None:
    gap = c * lambda2 * float((pd * gd).min()) - top
    return np.sqrt(n_nodes) * m_bound * float(pd.max()) / gap if gap > 0.0 else None


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
    return _cbar(lambda2, pd, gd, max(w11, w22))


def quad_cbar_minimized(lambda2: float, gamma_avg: float, coupling_shape=(1.0, 1.0)) -> float:
    """Bound minimized over the shape matrices: gamma_avg / (lambda2 * min shape).

    Attained in the limit w11 -> 0 with p11 >= p22; only meaningful for
    positive gamma_avg.
    """
    if gamma_avg <= 0.0:
        raise BoundInapplicableError("minimized bound assumes a positive common damping")
    # with p = I and w11 = w22 = gamma_avg the direct bound is exactly this limit
    return quad_cbar_direct(lambda2, gamma_avg, (1.0, 1.0), gamma_avg, coupling_shape)


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
        raise InvalidBoundError("remainder bound must be nonnegative")
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    pd, gd, w22 = _shapes(lambda2, gamma_avg, p, w11, coupling_shape, w22)
    return _epsilon(c, lambda2, pd, gd, max(w11, w22), m_bound, n_nodes)


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
    certificate needs one shared linear term).  epsilon is filled in when a
    coupling strength is given and the side condition holds at it; the
    remainder bound needs pos_max and vel_max (typically measured from a
    pilot run).
    """
    gamma = common_gamma(params)
    if gamma is None:
        raise BoundInapplicableError("certificate requires identical gamma across nodes")
    pd, gd, w22 = _shapes(lambda2, gamma, p, w11, coupling_shape, w22)
    top = max(w11, w22)
    m_bound = epsilon = None
    if pos_max is not None and vel_max is not None:
        m_bound = m_bar(params, pos_max, vel_max)
        if c is not None:
            epsilon = _epsilon(c, lambda2, pd, gd, top, m_bound, len(params))
    return QuadCertificate(
        p=pd,
        w=np.array([w11, w22]),
        coupling_shape=gd,
        lambda2=lambda2,
        c_bar=_cbar(lambda2, pd, gd, top),
        epsilon=epsilon,
        m_bound=m_bound,
    )
