"""Full-width reference for the barrier solver's Newton kernel.

The barrier value, gradient and Hessian of a compiled problem, computed
straight from its ``G_sparse``, ``h`` and ``hyperbolic`` with dense numpy:
no block structure, no padding and no kernel layout.  Phase II is over
``x``.  Phase I is over ``(x, t)``: every linear row is relaxed to
``g·x − t ≤ h``, every hyperbolic term to ``(p + t/2)(q + t/2) ≥ w``, and
the lower-bound row ``−t ≤ −lower_bound`` is added.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def barrier_reference(
    compiled, point: np.ndarray, lower_bound: Optional[float] = None
) -> Optional[Tuple[float, np.ndarray, np.ndarray]]:
    """``(value, gradient, Hessian)`` of the barrier
    ``Σ −log(h − G·x) + Σ −log(p·q − w)`` at ``point``, or ``None`` when
    ``point`` is not strictly inside (a slack that is not positive, or a
    side ``p`` or ``q`` off the positive branch).

    A given ``lower_bound`` selects phase I, and ``point`` is then ``(x, t)``.
    """
    G = compiled.G_sparse.toarray()
    h = np.asarray(compiled.h, dtype=float)
    hyperbolic = compiled.hyperbolic
    P, Q = hyperbolic.P.toarray(), hyperbolic.Q.toarray()
    if lower_bound is not None:
        G = np.hstack([G, -np.ones((G.shape[0], 1))])
        bound_row = np.zeros((1, G.shape[1]))
        bound_row[0, -1] = -1.0
        G = np.vstack([G, bound_row])
        h = np.append(h, -lower_bound)
        P = np.hstack([P, np.full((P.shape[0], 1), 0.5)])
        Q = np.hstack([Q, np.full((Q.shape[0], 1), 0.5)])
    s = h - G @ point
    p = P @ point + hyperbolic.p0
    q = Q @ point + hyperbolic.q0
    f = p * q - hyperbolic.bound
    if not all((side > 0.0).all() for side in (s, p, q, f)):
        return None
    value = -float(np.log(s).sum()) - float(np.log(f).sum())
    inv_s, inv_f = 1.0 / s, 1.0 / f
    # ∇f_i = q_i·P_i + p_i·Q_i and ∇²f_i = P_iQ_iᵀ + Q_iP_iᵀ.
    Gf = P * q[:, None] + Q * p[:, None]
    gradient = G.T @ inv_s - Gf.T @ inv_f
    hessian = (G * (inv_s * inv_s)[:, None]).T @ G
    hessian += (Gf * (inv_f * inv_f)[:, None]).T @ Gf
    PQ = (P * inv_f[:, None]).T @ Q
    hessian -= PQ + PQ.T
    return value, gradient, hessian


def relative(a: np.ndarray, b: np.ndarray) -> float:
    """``‖a − b‖ / ‖b‖``."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
