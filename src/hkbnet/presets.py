"""Bundled scenario data: node parameter tables and the five-node fixture graph.

The six-node table drives the rocking-chairs scenarios on an unweighted
complete graph; the five-node table (common damping coefficient 0.58)
drives the weighted-graph validation scenario.  The fixture weight
matrix was produced once by the seeded random generator and rescaled so the
neighbor-normalized Laplacian has second eigenvalue 0.4112, then frozen here
at full precision; weights stay within [0, 2].
"""

from __future__ import annotations

import numpy as np

from .dynamics import OscillatorParams

# Six-node scenario: (alpha, beta, gamma, omega) per node.
ROCKING6_PARAMS = (
    OscillatorParams(alpha=0.46, beta=1.16, gamma=0.58, omega=0.31),
    OscillatorParams(alpha=0.37, beta=1.20, gamma=1.84, omega=0.52),
    OscillatorParams(alpha=0.34, beta=1.73, gamma=0.62, omega=0.37),
    OscillatorParams(alpha=0.17, beta=0.31, gamma=1.86, omega=0.41),
    OscillatorParams(alpha=0.76, beta=0.76, gamma=1.40, omega=0.85),
    OscillatorParams(alpha=0.25, beta=0.86, gamma=0.56, omega=0.62),
)

# Initial (pos, vel) per node for the six-node scenario.
ROCKING6_INITIAL = np.array(
    [
        [-1.4, 0.3],
        [1.0, 0.2],
        [-1.8, -0.3],
        [0.2, -0.2],
        [1.5, 0.1],
        [-0.8, -0.1],
    ]
)

# Five-node validation scenario: common gamma = 0.58 across all nodes.
VALIDATION5_PARAMS = (
    OscillatorParams(alpha=0.46, beta=1.16, gamma=0.58, omega=0.16),
    OscillatorParams(alpha=0.37, beta=1.20, gamma=0.58, omega=0.26),
    OscillatorParams(alpha=0.34, beta=1.73, gamma=0.58, omega=0.18),
    OscillatorParams(alpha=0.17, beta=0.31, gamma=0.58, omega=0.21),
    OscillatorParams(alpha=0.76, beta=0.76, gamma=0.58, omega=0.27),
)

VALIDATION5_INITIAL = np.array(
    [
        [-1.4, 0.3],
        [1.0, 0.2],
        [-1.8, -0.3],
        [0.2, -0.2],
        [1.5, 0.1],
    ]
)

# Connected weighted fixture graph; lambda2 of its neighbor-normalized
# Laplacian equals 0.4112 up to floating-point rounding.
VALIDATION5_WEIGHTS = np.array(
    [
        (0.0, 0.0, 0.0, 0.3655764636391909, 1.7352153895899776),
        (0.0, 0.0, 1.7088641104882243, 0.9692654649429818, 0.0),
        (0.0, 1.7088641104882243, 0.0, 0.0, 1.3118717310846584),
        (0.3655764636391909, 0.9692654649429818, 0.0, 0.0, 0.026917448432840472),
        (1.7352153895899776, 0.0, 1.3118717310846584, 0.026917448432840472, 0.0),
    ]
)

# Shape-matrix diagonals used by the validation scenario's Lyapunov bound.
VALIDATION5_P = (0.077, 0.077)
VALIDATION5_W11 = 0.001
VALIDATION5_W22 = 0.045
