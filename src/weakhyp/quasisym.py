"""Quasi-symmetrizer construction and its spectral certificate.

For real roots lam_1 <= ... <= lam_m the family

    Q_eps = Q_0 + eps^2 Q_1 + ... + eps^(2(m-1)) Q_{m-1}

is built layer by layer (D'Ancona and Spagnolo, Boll. UMI 1998).  Q_r sums,
over all root subsets S of size r and all j outside S, c_U c_U^T, where c_U
holds the coefficients of prod_{i in U} (lam - lam_i) over the other roots U
(degree-l coefficient in slot l+1, higher slots zero).  Each U of size m-1-r
comes from r+1 such pairs (S, j), so each divisor is formed once:

    Q_r = (r+1) sum_{|U| = m-1-r} c_U c_U^T.

Three measured properties make the certificate:

  * two-sided spectral bounds:  eps^(2(m-1))/C <= eigs(Q_eps) <= C,
  * an eps-linear commutator bound against the companion matrix A:
        |((Q_eps A - A^T Q_eps) V, V)| <= C_comm * eps * (Q_eps V, V),
  * near-diagonality:  (Q_eps V, V) >= c_nd * sum_j q_jj |v_j|^2,
    which degenerates as eps -> 0 exactly when a nonzero root coincidence
    violates the separation condition.

C_comm and c_nd are exact generalized-eigenvalue extremals, each evaluated
again as a quotient at its extremal vector (its witness).  Random directions
audit only the two (time, eps) rows that set the run's C_comm and c_nd.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .symbol import as_table, diam_ratio

__all__ = [
    "QuasiSymmetrizer",
    "SymmetrizerCertificate",
    "build_quasi_symmetrizer",
    "verify_quasi_symmetrizer",
    "audit_binding_rows",
    "sample_unit_vectors",
]

_DRAW_ROWS = 1024  # rows of sample directions drawn at a time


@dataclass(frozen=True)
class QuasiSymmetrizer:
    """Layered symmetrizer family, one per row of real roots.

    ``roots`` has shape (n, m); each layer has shape (n, m, m).
    """

    roots: np.ndarray
    layers: tuple[np.ndarray, ...]  # Q_0 ... Q_{m-1}, each symmetric PSD

    def assemble(self, eps_values: Sequence[float]) -> np.ndarray:
        """Q_eps = sum_r eps^(2r) Q_r per time and eps, shape (n, len(eps_values), m, m).

        The powers are taken by the scalar pow (numpy's power differs from it
        by an ulp at some eps) and the layers are summed in order.
        """
        eps = [float(e) for e in eps_values]
        return sum(
            np.array([e ** (2 * r) for e in eps])[:, None, None] * layer[:, None]
            for r, layer in enumerate(self.layers)
        )


def _monic_from_roots(roots: np.ndarray, m: int) -> np.ndarray:
    """Ascending-degree coefficients of prod (lam - root) over the last axis, padded to length m."""
    coeffs = np.zeros((*roots.shape[:-1], m))
    coeffs[..., 0] = 1.0
    for deg in range(roots.shape[-1]):
        root = roots[..., deg : deg + 1]
        prev = coeffs[..., : deg + 1].copy()
        coeffs[..., : deg + 2] = 0.0
        coeffs[..., 1 : deg + 2] += prev  # lam * prev
        coeffs[..., : deg + 1] -= root * prev
    return coeffs


def build_quasi_symmetrizer(roots: np.ndarray) -> QuasiSymmetrizer:
    """Build the layered family from real roots (any order >= 2).

    ``roots`` holds one set per time, shape (n, m); the layers are built for
    all times at once.
    """
    rows = as_table(roots, "roots")
    m = rows.shape[1]
    if m < 2:
        raise ValueError("need at least two real roots")
    layers = []
    for size in range(m):
        layer = np.zeros((rows.shape[0], m, m))
        for chosen in itertools.combinations(range(m), size + 1):  # S and j; U is the rest
            w = _monic_from_roots(rows[:, [i for i in range(m) if i not in chosen]], m)
            layer += w[:, :, None] * w[:, None, :]
        layers.append((size + 1) * layer)
    return QuasiSymmetrizer(roots=rows, layers=tuple(layers))


def _draw_blocks(m: int, count: int, seed: int):
    """The sample directions of ``seed``, ``_DRAW_ROWS`` rows at a time.

    Yields the index of each block's first row and the block's real and
    imaginary parts, each of shape (rows, m).  The stdlib generator
    ``random.Random(seed)`` gives 16 bytes per entry, read as two
    little-endian 64-bit words in row-major order of the entries.  Their top
    53 bits make two uniforms u in (0, 1] and v in [0, 1), which Box-Muller
    turns into the complex Gaussian sqrt(-2 ln u) e^(2 pi i v).  Each row is
    then normalised, which makes it uniform on the complex unit sphere; the
    norm is taken from the moduli, |z_j|^2 = ln u_j / sum ln u.  The blocks
    come from one byte stream, so their rows are those of a one-shot draw.
    (numpy's generators would do as well, but importing them loads OpenSSL.)
    """
    gen = random.Random(seed)
    for start in range(0, count, _DRAW_ROWS):
        rows = min(_DRAW_ROWS, count - start)
        words = np.frombuffer(gen.randbytes(16 * rows * m), dtype="<u8").reshape(rows, m, 2)
        top = words >> np.uint64(11)
        log_u = np.log((top[..., 0] + 1.0) * 2.0**-53)
        modulus = np.sqrt(log_u / log_u.sum(axis=1, keepdims=True))
        angle = (2.0 * math.pi * 2.0**-53) * top[..., 1]
        yield start, modulus * np.cos(angle), modulus * np.sin(angle)


def sample_unit_vectors(m: int, count: int, seed: int) -> np.ndarray:
    """Complex unit vectors drawn from ``seed``, rows of shape (count, m).

    The draw is that of ``_draw_blocks``, which the sampled audit streams.
    """
    out = np.empty((count, m), dtype=complex)
    for start, x, y in _draw_blocks(m, count, seed):
        block = out[start : start + len(x)]
        block.real = x
        block.imag = y
    return out


def _forms(q: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray):
    """(Q v, v), |(B v, v)| and sum_j q_jj |v_j|^2, shape (..., n), at the rows v = x + iy.

    ``q`` (symmetric) and ``b`` (antisymmetric) are real stacks (..., m, m)
    that broadcast against ``x`` and ``y``, (..., n, m).  In reals,
    (Q v, v) = x^T Q x + y^T Q y and (B v, v) = 2i x^T B y.
    """
    quad = (x @ q * x).sum(axis=-1) + (y @ q * y).sum(axis=-1)
    comm = 2.0 * np.abs((x @ b * y).sum(axis=-1))
    diag = ((x * x + y * y) @ np.diagonal(q, axis1=-2, axis2=-1)[..., None])[..., 0]
    return quad, comm, diag


@dataclass
class SymmetrizerCertificate:
    """Measured extremal ratios over an eps set, and their quotients at the extremal vectors."""

    eps_set: tuple[float, ...]
    c_lower: float
    c_upper: float
    c_comm: float
    c_comm_by_eps: dict[float, float]
    c_nd: float
    c_nd_by_eps: dict[float, float]
    witness_c_comm: float
    witness_c_nd: float
    diam: float
    nd_floor: float
    qs1_pass: bool
    qs2_pass: bool
    nd_pass: bool

    @property
    def passed(self) -> bool:
        return self.qs1_pass and self.qs2_pass and self.nd_pass

    @property
    def witness_gap(self) -> float:
        """The largest relative gap of a witness quotient to its finite constant."""
        pairs = [(self.witness_c_comm, self.c_comm), (self.witness_c_nd, self.c_nd)]
        gaps = [abs(w - c) / abs(c) if c else math.inf for w, c in pairs if w != c and math.isfinite(c)]
        return max(gaps, default=0.0)

    @property
    def c_nd_eps_slope(self) -> float | None:
        """ln(c_nd ratio) / ln(eps ratio) over the two smallest eps.

        The observed exponent p of c_nd ~ eps^p: about 2 at a nonzero double
        root, about 0 where the roots stay apart.  None with fewer than two
        eps or where some c_nd is not positive.
        """
        if len(self.c_nd_by_eps) < 2 or not min(self.c_nd_by_eps.values()) > 0:
            return None
        (eps_1, nd_1), (eps_2, nd_2) = sorted(self.c_nd_by_eps.items())[:2]
        return math.log(nd_2 / nd_1) / math.log(eps_2 / eps_1)

    def to_dict(self) -> dict:
        return {
            "eps_set": list(self.eps_set),
            "C_lower": self.c_lower,
            "C_upper": self.c_upper,
            "C_comm": self.c_comm,
            "C_comm_by_eps": {repr(k): v for k, v in self.c_comm_by_eps.items()},
            "c_nd": self.c_nd,
            "c_nd_by_eps": {repr(k): v for k, v in self.c_nd_by_eps.items()},
            "witness_C_comm": self.witness_c_comm,
            "witness_c_nd": self.witness_c_nd,
            "diam_ratio": self.diam,
            "nd_floor": self.nd_floor,
            "pass": {
                "qs1": self.qs1_pass,
                "qs2": self.qs2_pass,
                "nd": self.nd_pass,
                "all": self.passed,
            },
        }


def verify_quasi_symmetrizer(
    qs: QuasiSymmetrizer,
    a_matrix: np.ndarray,
    eps_set: Sequence[float],
    *,
    nd_floor: float = 0.0,
) -> list[SymmetrizerCertificate]:
    """Measure the certificate constants for a symmetrizer against its A.

    ``qs`` holds n sets of roots and ``a_matrix`` their companion matrices,
    shape (n, m, m); the result is one certificate per set, every time and
    eps in one batch.
    Spectral bounds come from exact symmetric eigensolves; the commutator and
    near-diagonality constants are exact generalized-eigenvalue extremals,
    also evaluated as quotients at their witnesses: v = Q^(-1/2) g, g the
    top-|lambda| eigenvector of Q^(-1/2) (iB) Q^(-1/2), and x = D^(-1/2) e,
    e the bottom eigenvector of D^(-1/2) Q D^(-1/2), D = diag(Q).  The
    vectors come from an ``eigh`` of their own, so the constants keep the bits
    of ``eigvalsh``.  Raises ``ValueError`` on dimension mismatch.
    """
    n, m = qs.roots.shape
    a_matrix = np.asarray(a_matrix, dtype=float)
    if a_matrix.shape != (n, m, m):
        raise ValueError(f"companion stack must have shape ({n}, {m}, {m}), got {a_matrix.shape}")
    eps_set = tuple(float(e) for e in eps_set)
    if any(e <= 0 for e in eps_set):
        raise ValueError("eps values must be positive")

    # rows of every stack below run over (time, eps), eps fastest
    n_eps = len(eps_set)
    a = np.repeat(a_matrix, n_eps, axis=0)
    q = qs.assemble(eps_set).reshape(-1, m, m)
    eps_rows = np.tile(eps_set, n)

    w, u = np.linalg.eigh(q)
    lam_min, lam_max = w[:, 0], w[:, -1]
    pos = lam_min > 0
    top = np.tile([eps ** (2 * (m - 1)) for eps in eps_set], n)
    lower = np.full(n * n_eps, np.inf)
    lower[pos] = top[pos] / lam_min[pos]

    b = q @ a - a.transpose(0, 2, 1) @ q  # real antisymmetric
    comm = np.full(n * n_eps, np.inf)
    witness_comm = np.full(n * n_eps, np.inf)
    if pos.any():
        up = u[pos]
        inv_sqrt = (up * w[pos, None, :] ** -0.5) @ up.transpose(0, 2, 1)
        pencil = inv_sqrt @ (1j * b[pos]) @ inv_sqrt
        comm[pos] = np.abs(np.linalg.eigvalsh(pencil)).max(axis=1) / eps_rows[pos]
        gen_eigs, g = np.linalg.eigh(pencil)
        g_top = np.take_along_axis(g, np.abs(gen_eigs).argmax(axis=1)[:, None, None], axis=2)
        v = (inv_sqrt @ g_top).transpose(0, 2, 1)  # one row per (time, eps)
        quad, num, _ = _forms(q[pos], b[pos], v.real, v.imag)
        witness_comm[pos] = num[:, 0] / quad[:, 0] / eps_rows[pos]

    d = np.diagonal(q, axis1=1, axis2=2)
    dpos = (d > 0).all(axis=1)
    nd = np.zeros(n * n_eps)
    witness_nd = np.zeros(n * n_eps)
    if dpos.any():
        dd = d[dpos]
        norm = q[dpos] / np.sqrt(dd[:, :, None] * dd[:, None, :])
        nd[dpos] = np.linalg.eigvalsh(norm)[:, 0]
        x = np.linalg.eigh(norm)[1][:, None, :, 0] / np.sqrt(dd)[:, None, :]
        quad, _, diag_quad = _forms(q[dpos], b[dpos], x, np.zeros_like(x))
        witness_nd[dpos] = quad[:, 0] / diag_quad[:, 0]

    diams = diam_ratio(qs.roots).tolist()
    certs = []
    for i in range(n):
        rows = slice(i * n_eps, (i + 1) * n_eps)
        comm_by_eps = dict(zip(eps_set, comm[rows].tolist()))
        nd_by_eps = dict(zip(eps_set, nd[rows].tolist()))
        c_lower = max([0.0, *lower[rows].tolist()])
        c_upper = max([0.0, *lam_max[rows].tolist()])
        c_comm = max(comm_by_eps.values())
        c_nd = min(nd_by_eps.values())
        nd_ok = c_nd > nd_floor if nd_floor == 0.0 else c_nd >= nd_floor
        certs.append(
            SymmetrizerCertificate(
                eps_set=eps_set,
                c_lower=c_lower,
                c_upper=c_upper,
                c_comm=c_comm,
                c_comm_by_eps=comm_by_eps,
                c_nd=c_nd,
                c_nd_by_eps=nd_by_eps,
                witness_c_comm=max(witness_comm[rows].tolist()),
                witness_c_nd=min(witness_nd[rows].tolist()),
                diam=diams[i],
                nd_floor=nd_floor,
                qs1_pass=math.isfinite(c_lower) and math.isfinite(c_upper),
                qs2_pass=math.isfinite(c_comm),
                nd_pass=bool(nd_ok),
            )
        )
    return certs


def _sampled_extremes(
    q: np.ndarray, b: np.ndarray, eps: np.ndarray, blocks
) -> tuple[np.ndarray, np.ndarray]:
    """Directional audit of a few rows of the stacks q (symmetric), b (antisymmetric).

    Returns, per row, the largest |(B v, v)| / (eps (Q v, v)) and the
    smallest (Q v, v) / sum_j q_jj |v_j|^2 over the directions v with
    (Q v, v) > 0 (-inf and +inf where there are none).  The directions come
    as ``_draw_blocks`` yields them, and each block is read once for all rows.
    """
    comm = np.full(len(q), -np.inf)
    nd = np.full(len(q), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _, x, y in blocks:
            quad, num, diag_quad = _forms(q, b, x, y)
            good = quad > 0  # also False where (Q v, v) is NaN
            comm = np.maximum(comm, np.where(good, num / quad, -np.inf).max(axis=1))
            nd = np.minimum(nd, np.where(good, quad / diag_quad, np.inf).min(axis=1))
    return comm / eps, nd


def audit_binding_rows(
    qs: QuasiSymmetrizer,
    a_matrix: np.ndarray,
    certs: Sequence[SymmetrizerCertificate],
    count: int,
    seed: int,
) -> tuple[float, float]:
    """Sampled C_comm and c_nd of ``certs``, which ``verify_quasi_symmetrizer`` made of ``qs``.

    Each is audited on the ``count`` directions of ``seed`` at the (time, eps)
    row that sets its aggregate, the first in time then eps order.  A sampled
    extremum can fall short of the exact one, never beyond it.
    """
    rows = [(i, eps) for i, cert in enumerate(certs) for eps in cert.eps_set]
    comm_row = max(rows, key=lambda row: certs[row[0]].c_comm_by_eps[row[1]])
    nd_row = min(rows, key=lambda row: certs[row[0]].c_nd_by_eps[row[1]])
    binding = (comm_row, nd_row)
    q = np.stack([qs.assemble([eps])[i, 0] for i, eps in binding])
    a = np.asarray(a_matrix, dtype=float)[[i for i, _ in binding]]
    b = q @ a - a.transpose(0, 2, 1) @ q
    eps = np.array([eps for _, eps in binding])
    comm, nd = _sampled_extremes(q, b, eps, _draw_blocks(qs.roots.shape[1], count, seed))
    return float(comm[0]), float(nd[1])
