"""Analytic coupling-strength conditions for bounded network synchronization.

Two independent certificates are evaluated:

* a contraction-theory window (c_lo, c_hi) for full-state coupling on an
  unweighted complete graph, built from node-averaged parameters and bounds
  on the virtual state, and
* a Lyapunov-style minimum coupling c_bar with an asymptotic error bound
  epsilon, valid on any connected topology but requiring a common linear
  damping coefficient across nodes.

Both are sufficient conditions only; simulations routinely synchronize well
below them, so infeasible or conservative outcomes are reported as values,
never raised as errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import OscillatorParams
from .graph import ZERO_EIGENVALUE_TOL, Topology, neighbor_lambda2


class InvalidBoundError(ValueError):
    """A state bound fed into a certificate is not positive."""


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
    n_nodes nodes; large_n_* gives the limit window as the node count grows.
    feasible is False when the window is empty, which merely means the
    sufficient condition is silent.
    """

    c_lo: float
    c_hi: float
    feasible: bool
    large_n_c_lo: float
    large_n_c_hi: float
    large_n_feasible: bool
    n_nodes: int
    assumes_complete_unweighted: bool = True


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
    if z1_max <= 0.0 or z2_max <= 0.0:
        raise InvalidBoundError("state bounds must be positive")
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


def _diag2(values, name: str) -> np.ndarray:
    d = np.asarray(values, dtype=float)
    if d.ndim == 2:
        if d.shape != (2, 2) or np.any(d != np.diag(np.diag(d))):
            raise ValueError(f"{name} must be a diagonal 2x2 matrix")
        d = np.diag(d)
    if d.shape != (2,):
        raise ValueError(f"{name} must hold two diagonal entries")
    return d


def _lambda2_of(topology: Topology) -> float:
    lam2 = neighbor_lambda2(topology)
    if lam2 <= ZERO_EIGENVALUE_TOL:
        raise UndefinedBoundError("topology has no spectral gap (disconnected?)")
    return lam2


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
    pd = _diag2(p, "p")
    gd = _diag2(coupling_shape, "coupling_shape")
    if np.any(pd <= 0.0):
        raise ValueError("p must have positive diagonal entries")
    if w11 <= 0.0:
        raise ValueError("w11 must be positive")
    if np.any(gd <= 0.0):
        raise BoundInapplicableError("coupling shape must be positive definite here")
    if lambda2 <= ZERO_EIGENVALUE_TOL:
        raise UndefinedBoundError("lambda2 is zero; no coupling bound exists")
    top = max(w11, w22 if w22 is not None else gamma_avg * pd[1])
    return top / (lambda2 * float((pd * gd).min()))


def quad_cbar_minimized(lambda2: float, gamma_avg: float, coupling_shape=(1.0, 1.0)) -> float:
    """Bound minimized over the shape matrices: gamma_avg / (lambda2 * min shape).

    Attained in the limit w11 -> 0 with p11 >= p22; only meaningful for
    positive gamma_avg.
    """
    gd = _diag2(coupling_shape, "coupling_shape")
    if np.any(gd <= 0.0):
        raise BoundInapplicableError("coupling shape must be positive definite here")
    if lambda2 <= ZERO_EIGENVALUE_TOL:
        raise UndefinedBoundError("lambda2 is zero; no coupling bound exists")
    if gamma_avg <= 0.0:
        raise BoundInapplicableError("minimized bound assumes a positive common damping")
    return gamma_avg / (lambda2 * float(gd.min()))


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
) -> float:
    """Asymptotic tracking-error bound at coupling strength c.

    Requires the side condition c * lambda2 * min(p * shape) > max(w11, w22);
    otherwise the certificate says nothing and BoundInapplicableError is
    raised (a statement about hypotheses, not a numeric failure).
    """
    pd = _diag2(p, "p")
    gd = _diag2(coupling_shape, "coupling_shape")
    if np.any(pd <= 0.0) or w11 <= 0.0:
        raise ValueError("shape entries must be positive")
    if np.any(gd <= 0.0):
        raise BoundInapplicableError("coupling shape must be positive definite here")
    if m_bound < 0.0:
        raise InvalidBoundError("remainder bound must be nonnegative")
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    top = max(w11, w22 if w22 is not None else gamma_avg * pd[1])
    gap = c * lambda2 * float((pd * gd).min()) - top
    if gap <= 0.0:
        raise BoundInapplicableError(
            f"side condition fails: c*lambda2*min(p*shape)={c * lambda2 * float((pd * gd).min()):.6g} "
            f"<= max(w)={top:.6g}"
        )
    return np.sqrt(n_nodes) * m_bound * float(pd.max()) / gap


def quad_certificate(
    topology: Topology,
    params: Sequence[OscillatorParams],
    p=(1.0, 1.0),
    w11: float = 1e-6,
    coupling_shape=(1.0, 1.0),
    c: float | None = None,
    pos_max: float | None = None,
    vel_max: float | None = None,
    w22: float | None = None,
) -> QuadCertificate:
    """Full Lyapunov certificate for a network with a common damping coefficient.

    Rejects heterogeneous gamma (the decomposition behind the certificate
    needs one shared linear term).  epsilon is filled in when a coupling
    strength is given and the side condition holds at it; the remainder
    bound needs pos_max and vel_max (typically measured from a pilot run).
    """
    gammas = np.array([q.gamma for q in params])
    if np.abs(gammas - gammas[0]).max() > 1e-9 * max(1.0, abs(gammas[0])):
        raise BoundInapplicableError("certificate requires identical gamma across nodes")
    gamma_avg = float(gammas[0])
    lam2 = _lambda2_of(topology)
    pd = _diag2(p, "p")
    gd = _diag2(coupling_shape, "coupling_shape")
    w22_val = w22 if w22 is not None else gamma_avg * pd[1]
    c_bar = quad_cbar_direct(lam2, gamma_avg, pd, w11, gd, w22)
    m_bound = None
    epsilon = None
    if pos_max is not None and vel_max is not None:
        m_bound = m_bar(params, pos_max, vel_max)
        if c is not None:
            try:
                epsilon = quad_epsilon_direct(
                    c, lam2, gamma_avg, pd, w11, gd, m_bound, topology.n, w22
                )
            except BoundInapplicableError:
                epsilon = None
    return QuadCertificate(
        p=pd,
        w=np.array([w11, w22_val]),
        coupling_shape=gd,
        lambda2=lam2,
        c_bar=c_bar,
        epsilon=epsilon,
        m_bound=m_bound,
    )
