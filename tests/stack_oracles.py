"""One-element bodies of the stacked evaluators, kept as test oracles.

``groups.membership_residuals`` and ``torsion._sl2_align_stack`` take a
whole stack at a time, and ``membership_residual``, ``_sl2_align`` and
``orientation_sign`` are their one-element cases.  These are the direct
per-matrix statements they replaced.  They share no code with the package,
so a test that compares the two does not compare the code with itself.
"""

import numpy as np


def membership_residual_oracle(spec, g):
    """Frobenius-scale distance from the defining group constraints, one
    matrix at a time: the max over the terms, or the first NaN term."""
    g = np.asarray(g)
    m = spec.size
    if g.shape != (m, m):
        return float("inf")
    eye = np.eye(m)
    gr = np.real(g)
    if spec.family in ("U", "SU"):
        terms = [np.linalg.norm(g.conj().T @ g - eye)]
        if spec.family == "SU":
            terms.append(abs(np.linalg.det(g) - 1.0))
    else:
        terms = [abs(np.linalg.det(gr) - 1.0),
                 np.linalg.norm(np.imag(g)) if np.iscomplexobj(g) else 0.0]
        if spec.family == "SO":
            terms.insert(0, np.linalg.norm(gr.T @ gr - eye))
    nans = [t for t in terms if t != t]
    return float(nans[0] if nans else max(terms))


def sl2_align_oracle(g):
    """(h, phase) with h in SL(2,R) and g = h R(2 pi phase) h^-1, for +-I
    and elliptic g; ValueError (LinAlgError for a non-finite g) otherwise."""
    g = np.asarray(g, dtype=float)
    eye = np.eye(2)
    if np.linalg.norm(g - eye) <= 1e-8:
        return eye.copy(), 0.0
    if np.linalg.norm(g + eye) <= 1e-8:
        return eye.copy(), 0.5
    tr = float(np.trace(g))
    if abs(tr) >= 2:
        raise ValueError("element is not elliptic or central; it has no "
                         "finite order in SL(2,R)")
    theta = float(np.arctan2(np.sqrt(max(0.0, 1 - tr * tr / 4)), tr / 2))
    mu = tr / 2 + 1j * np.sin(theta)
    _, _, Vt = np.linalg.svd(g.astype(complex) - mu * np.eye(2))
    v = Vt[-1].conj()
    x, y = v.real, v.imag
    delta = x[0] * y[1] - x[1] * y[0]
    if abs(delta) < 1e-12:
        raise ValueError("degenerate eigenvector; cannot align")
    if delta < 0:
        h = np.column_stack([y, x]) / np.sqrt(-delta)
        phase = theta / (2 * np.pi)
    else:
        h = np.column_stack([x, y]) / np.sqrt(delta)
        phase = 1.0 - theta / (2 * np.pi)
    return h, phase


def orientation_sign_oracle(g):
    """-1 for a rotation phase in (0, 1/2), +1 in (1/2, 1), 0 for +-I and
    for whatever ``sl2_align_oracle`` refuses."""
    try:
        _, phase = sl2_align_oracle(g)
    except ValueError:
        return 0
    if phase in (0.0, 0.5):
        return 0
    return -1 if phase < 0.5 else 1
