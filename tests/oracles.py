"""Reference implementations kept for the tests to compare against.

Both are the plain forms that faster production code replaced; each takes
the same arguments as the function it stands in for, so a test can swap it
in with ``monkeypatch.setattr``.
"""

import numpy as np
from scipy.optimize import brentq


def bisect_exits(domain, base, w, lo, hi, n_bisect=60):
    """Exit roots along the rays base + s w by a fixed-count bisection of
    the brackets [lo, hi] (stands in for ``analysis._polish_exits``)."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        inside = domain.xi(base + mid[:, None] * w) <= 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


def scan_zeros_scalar(fn, lo, hi, n):
    """All simple zeros of fn on [lo, hi), one scalar call per grid point
    (stands in for ``curves._scan_zeros``)."""
    ts = np.linspace(lo, hi, n + 1)
    vals = np.array([float(fn(t)) for t in ts])
    zeros = []
    for i in range(n):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            zeros.append(ts[i])
        elif v0 * v1 < 0.0:
            zeros.append(brentq(fn, ts[i], ts[i + 1], xtol=1e-14, rtol=1e-15))
    return zeros
