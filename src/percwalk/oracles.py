"""Closed-form reference curves used as ground truth by tests and experiments.

The named formulas are evaluated directly (no matrices), so they stay
independent of the numerical stack they validate. The rescaled-time
reference of an arbitrary graph has no closed form: it is
``walk.transition_probability`` (or ``walk.classical_transition``) at
time lam * t.
"""
from __future__ import annotations

import numpy as np


def complete_graph_quantum_return(n: int, t: float | np.ndarray) -> float | np.ndarray:
    """Return probability on the complete graph with n nodes.

    (n-1)^2/n^2 + 1/n^2 + 2(n-1)/n^2 * cos(n*t); period 2*pi/n with full
    revivals at multiples of the period.
    """
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    t = np.asarray(t, dtype=np.float64)
    out = ((n - 1) ** 2 + 1 + 2 * (n - 1) * np.cos(n * t)) / n**2
    return float(out) if out.ndim == 0 else out


def complete_graph_classical_return(n: int, t: float | np.ndarray) -> float | np.ndarray:
    """Classical return probability on the complete graph: ((n-1)e^{-nt} + 1)/n."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    out = ((n - 1) * np.exp(-n * t) + 1.0) / n
    return float(out) if out.ndim == 0 else out


def ring4_quantum_return(lam: float, t: float | np.ndarray) -> float | np.ndarray:
    """Rescaled return probability on the 4-ring: cos(lam*t)^4."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    t = np.asarray(t, dtype=np.float64)
    out = np.cos(lam * t) ** 4
    return float(out) if out.ndim == 0 else out


def ring4_classical_return(lam: float, t: float | np.ndarray) -> float | np.ndarray:
    """Rescaled classical return probability on the 4-ring.

    0.25 + e^{-2*lam*t}/2 + e^{-4*lam*t}/4, decaying to the flat value 0.25.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    out = 0.25 + np.exp(-2.0 * lam * t) / 2.0 + np.exp(-4.0 * lam * t) / 4.0
    return float(out) if out.ndim == 0 else out


def flat_limit(n: int) -> float:
    """Long-time flat site probability on a finite graph with n nodes: 1/n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1.0 / n
