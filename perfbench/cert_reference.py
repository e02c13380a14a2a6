"""Frozen high-precision reference for the certify_m3 certificate constants.

The workload's symbol lam^3 - t^2 lam has the exact roots {-t, 0, t}.  This
module rebuilds the layered quasi-symmetrizer from those exact roots and
measures the four aggregate certificate constants in 40-digit arithmetic
(mpmath), so the reference shares neither root extraction nor floating-point
linear algebra with the code under test.

Regenerate the frozen file after changing the certify_m3 grid:

    python3 perfbench/cert_reference.py
"""

from __future__ import annotations

import itertools
import json

import mpmath as mp


def _monic(roots, m):
    """Ascending coefficients of prod (lam - r), padded to length m."""
    coeffs = [mp.mpf(1)] + [mp.mpf(0)] * (m - 1)
    for r in roots:
        coeffs = [(coeffs[i - 1] if i else 0) - r * coeffs[i] for i in range(m)]
    return coeffs


def _constants_at(roots, companion_last_row, eps_set):
    m = len(roots)
    layers = []
    for size in range(m):
        layer = mp.zeros(m, m)
        for subset in itertools.combinations(range(m), size):
            for j in range(m):
                if j in subset:
                    continue
                w = _monic([roots[i] for i in range(m) if i not in subset and i != j], m)
                layer += mp.matrix(w) * mp.matrix(w).T
        layers.append(layer)
    a = mp.zeros(m, m)
    for i in range(m - 1):
        a[i, i + 1] = -1
    for col, value in enumerate(companion_last_row):
        a[m - 1, col] = value
    lower = upper = comm = mp.mpf(0)
    nd = mp.inf
    for eps in eps_set:
        q = sum((eps ** (2 * r) * layer for r, layer in enumerate(layers)), mp.zeros(m, m))
        w, u = mp.eigsy(q)
        lower = max(lower, eps ** (2 * (m - 1)) / min(w))
        upper = max(upper, max(w))
        inv_sqrt = u * mp.diag([x ** -0.5 for x in w]) * u.T
        herm = inv_sqrt * (mp.mpc(0, 1) * (q * a - a.T * q)) * inv_sqrt
        comm = max(comm, max(abs(x) for x in mp.eighe(herm, eigvals_only=True)) / eps)
        norm = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                norm[i, j] = q[i, j] / mp.sqrt(q[i, i] * q[j, j])
        nd = min(nd, min(mp.eigsy(norm, eigvals_only=True)))
    return lower, upper, comm, nd


def certificate_reference(times, eps_set) -> dict:
    """Aggregate constants of lam^3 - t^2 lam over ``times`` (floats)."""
    mp.mp.dps = 40
    eps = [mp.mpf(e) for e in eps_set]
    per_time = []
    for t in times:
        t = mp.mpf(t)
        per_time.append(_constants_at([-t, mp.mpf(0), t], [0, -t * t, 0], eps))
    agg = {
        "C_lower": max(p[0] for p in per_time),
        "C_upper": max(p[1] for p in per_time),
        "C_comm": max(p[2] for p in per_time),
        "c_nd": min(p[3] for p in per_time),
    }
    return {name: mp.nstr(value, 25) for name, value in agg.items()}


if __name__ == "__main__":
    from workloads import CERT_REFERENCE, CERTIFY_M3

    cert = CERTIFY_M3["certificate"]
    n = cert["times"]
    times = [CERTIFY_M3["T"] * i / (n - 1) for i in range(n)]
    payload = {
        "times": n,
        "eps_set": cert["eps_set"],
        "aggregate": certificate_reference(times, cert["eps_set"]),
    }
    with open(CERT_REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
