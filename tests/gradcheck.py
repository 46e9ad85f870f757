"""Finite-difference gradient check for the taped autodiff, shared by the tests."""

import numpy as np

from shapefuse.autodiff import Tape, gradient, value_of


def grad_check(f, x, step: float = 1e-5) -> float:
    """Max mixed error between analytic and central-difference gradients.

    `f` takes a sequence of scalars (Nodes or floats) and returns a scalar;
    the error per component is |analytic - fd| / max(|analytic|, 1):
    relative for large gradients, absolute for small ones, so a gradient
    that is zero analytically is not measured against a vanishing scale.
    Reports the maximum; never raises on mismatch.
    """
    x = np.asarray(x, dtype=np.float64).ravel()

    tape = Tape()
    leaves = [tape.variable(xi) for xi in x]
    root = f(leaves)
    analytic = np.array([g.item() if hasattr(g, "item") else float(g)
                         for g in gradient(root, leaves)])

    fd = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        fp = f(list(xp))
        fm = f(list(xm))
        fd[i] = (float(value_of(fp)) - float(value_of(fm))) / (2.0 * step)

    err = np.abs(analytic - fd) / np.maximum(np.abs(analytic), 1.0)
    return float(err.max()) if err.size else 0.0
