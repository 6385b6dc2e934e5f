"""Test-only 2-form helpers: the basis forms ei^ej and the skew-matrix inner product.

No command and no check uses them; the tests build expected values from them.
"""

import numpy as np

from curvcone.wedge import PAIR_INDEX, skew_matrix


def basis_two_form(i: int, j: int) -> np.ndarray:
    """Coefficient vector of ei^ej (0-based indices, i != j)."""
    if i == j:
        raise ValueError("ei^ei = 0 is not a basis form")
    u = np.zeros(6)
    if i < j:
        u[PAIR_INDEX[(i, j)]] = 1.0
    else:
        u[PAIR_INDEX[(j, i)]] = -1.0
    return u


def form_inner(u, v) -> float:
    """<u, v> = -tr(UV)/2 computed through the skew-matrix picture."""
    return float(-0.5 * np.trace(skew_matrix(u) @ skew_matrix(v)))
