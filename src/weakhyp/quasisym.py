"""Quasi-symmetrizer construction and its randomized/spectral certificate.

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
    "sample_unit_vectors",
    "sample_moments",
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

    The draw is that of ``_draw_blocks``; ``sample_moments`` reads the same
    stream.
    """
    out = np.empty((count, m), dtype=complex)
    for start, x, y in _draw_blocks(m, count, seed):
        block = out[start : start + len(x)]
        block.real = x
        block.imag = y
    return out


def sample_moments(m: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Moment rows of the ``count`` directions ``sample_unit_vectors`` draws.

    With r_ij + i s_ij = conj(v_i) v_j, returns the rows r_ij for i <= j,
    shape (m(m+1)/2, count), and s_ij for i < j, shape (m(m-1)/2, count),
    each pair in ``np.triu_indices`` order: the input of
    ``verify_quasi_symmetrizer``.  The directions are consumed a draw block
    at a time and never stored, and each row is written in place, so the
    moments are all this allocates beyond one block.
    """
    iu, ju = np.triu_indices(m)
    il, jl = np.triu_indices(m, 1)
    re = np.empty((iu.size, count))
    im = np.empty((il.size, count))
    for start, x, y in _draw_blocks(m, count, seed):
        cols = slice(start, start + len(x))
        for row, i, j in zip(re, iu.tolist(), ju.tolist()):
            np.multiply(x[:, i], x[:, j], out=row[cols])
            row[cols] += y[:, i] * y[:, j]
        for row, i, j in zip(im, il.tolist(), jl.tolist()):
            np.multiply(x[:, i], y[:, j], out=row[cols])
            row[cols] -= y[:, i] * x[:, j]
    return re, im


@dataclass
class SymmetrizerCertificate:
    """Measured extremal ratios over an eps set, plus directional audits."""

    eps_set: tuple[float, ...]
    c_lower: float
    c_upper: float
    c_comm: float
    c_comm_by_eps: dict[float, float]
    c_nd: float
    c_nd_by_eps: dict[float, float]
    sampled_c_comm: float
    sampled_c_nd: float
    diam: float
    samples: int
    nd_floor: float
    qs1_pass: bool
    qs2_pass: bool
    nd_pass: bool

    @property
    def passed(self) -> bool:
        return self.qs1_pass and self.qs2_pass and self.nd_pass

    def to_dict(self) -> dict:
        return {
            "eps_set": list(self.eps_set),
            "C_lower": self.c_lower,
            "C_upper": self.c_upper,
            "C_comm": self.c_comm,
            "C_comm_by_eps": {repr(k): v for k, v in self.c_comm_by_eps.items()},
            "c_nd": self.c_nd,
            "c_nd_by_eps": {repr(k): v for k, v in self.c_nd_by_eps.items()},
            "sampled_C_comm": self.sampled_c_comm,
            "sampled_c_nd": self.sampled_c_nd,
            "diam_ratio": self.diam,
            "samples": self.samples,
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
    moments: tuple[np.ndarray, np.ndarray] | None = None,
    nd_floor: float = 0.0,
) -> list[SymmetrizerCertificate]:
    """Measure the certificate constants for a symmetrizer against its A.

    ``qs`` holds n sets of roots and ``a_matrix`` their companion matrices,
    shape (n, m, m); the result is one certificate per set, every time and
    eps in one batch.
    Spectral bounds come from exact symmetric eigensolves; the commutator and
    near-diagonality constants are exact generalized-eigenvalue extremals,
    cross-audited on random directions v_1 ... v_n given by their ``moments``
    (r, s), r_ij + i s_ij = conj(v_i) v_j: r of shape (m(m+1)/2, n) over
    i <= j, s of shape (m(m-1)/2, n) over i < j, each in ``np.triu_indices``
    order, as ``sample_moments`` returns them.  Without moments there are no
    directions.  Raises ``ValueError`` on dimension mismatch.
    """
    n, m = qs.roots.shape
    a_matrix = np.asarray(a_matrix, dtype=float)
    if a_matrix.shape != (n, m, m):
        raise ValueError(f"companion stack must have shape ({n}, {m}, {m}), got {a_matrix.shape}")
    eps_set = tuple(float(e) for e in eps_set)
    if any(e <= 0 for e in eps_set):
        raise ValueError("eps values must be positive")
    n_re, n_im = m * (m + 1) // 2, m * (m - 1) // 2
    if moments is None:
        moments = np.zeros((n_re, 0)), np.zeros((n_im, 0))
    re, im = (np.ascontiguousarray(mom, dtype=float) for mom in moments)
    count = re.shape[-1]
    if (re.shape, im.shape) != ((n_re, count), (n_im, count)):
        raise ValueError(
            f"moment rows must have shapes ({n_re}, n) and ({n_im}, n), got {re.shape} and {im.shape}"
        )

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
    if pos.any():
        up = u[pos]
        inv_sqrt = (up * w[pos, None, :] ** -0.5) @ up.transpose(0, 2, 1)
        gen_eigs = np.linalg.eigvalsh(inv_sqrt @ (1j * b[pos]) @ inv_sqrt)
        comm[pos] = np.abs(gen_eigs).max(axis=1) / eps_rows[pos]

    d = np.diagonal(q, axis1=1, axis2=2)
    dpos = (d > 0).all(axis=1)
    nd = np.zeros(n * n_eps)
    if dpos.any():
        dd = d[dpos]
        norm = q[dpos] / np.sqrt(dd[:, :, None] * dd[:, None, :])
        nd[dpos] = np.linalg.eigvalsh(norm)[:, 0]

    sampled_comm, sampled_nd = _sampled_audit(re, im, q, b, eps_rows, n_eps)
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
                sampled_c_comm=max([0.0, *sampled_comm[rows].tolist()]),
                sampled_c_nd=min(sampled_nd[rows].tolist()) if count else float("nan"),
                diam=diams[i],
                samples=count,
                nd_floor=nd_floor,
                qs1_pass=math.isfinite(c_lower) and math.isfinite(c_upper),
                qs2_pass=math.isfinite(c_comm),
                nd_pass=bool(nd_ok),
            )
        )
    return certs


def _sampled_audit(
    re: np.ndarray,
    im: np.ndarray,
    q: np.ndarray,
    b: np.ndarray,
    eps_rows: np.ndarray,
    n_eps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Directional audit per row of the stacks q (symmetric), b (antisymmetric).

    Returns the largest |(B v, v)| / (eps (Q v, v)) and the smallest
    (Q v, v) / sum_j q_jj |v_j|^2 over the sample directions v with
    (Q v, v) > 0 (-inf and +inf where there are none).

    The directions come as their moment rows, C-contiguous: with
    r_ij + i s_ij = conj(v_i) v_j, r symmetric and s antisymmetric, ``re``
    holds r_ij for i <= j and ``im`` holds s_ij for i < j, one column per
    direction, in ``np.triu_indices`` order.  Then

        (Q v, v)             = sum_{i<=j} r_ij (q_ij + q_ji [i < j]),
        sum_j q_jj |v_j|^2   = sum_j r_jj q_jj,
        |(B v, v)|           = |sum_{i<j} s_ij (b_ij - b_ji)|,

    so m(m+1)/2 and m(m-1)/2 moment rows stand in for m^2 each.  The rows of
    one time (``n_eps`` of them) are taken at a time into two buffers of
    (rows, samples) allocated once.  The coefficient stacks are made
    C-contiguous: fancy indexing leaves them column-major, a row block of
    which is no BLAS operand, and numpy's own loop sums in another order, so
    a time's bits would depend on the stack it sits in.
    """
    rows, m = q.shape[:2]
    sampled_comm = np.full(rows, -np.inf)
    sampled_nd = np.full(rows, np.inf)
    count = re.shape[1]
    if not count:
        return sampled_comm, sampled_nd
    iu, ju = np.triu_indices(m)
    il, jl = np.triu_indices(m, 1)
    on_diag = iu == ju
    upper = q[:, iu, ju]
    q_rows = np.where(on_diag, upper, upper + q[:, ju, iu]).reshape(-1, n_eps, iu.size)
    d_rows = np.where(on_diag, upper, 0.0).reshape(-1, n_eps, iu.size)
    # per time: the n_eps rows of (Q v, v), then those of sum_j q_jj |v_j|^2
    qd_coef = np.ascontiguousarray(np.concatenate((q_rows, d_rows), axis=1))
    b_coef = np.ascontiguousarray(b[:, il, jl] - b[:, jl, il]).reshape(-1, n_eps, il.size)
    qd = np.empty((2 * n_eps, count))
    c = np.empty((n_eps, count))
    quad, diag_quad = qd[:n_eps], qd[n_eps:]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(rows // n_eps):
            blk = slice(i * n_eps, (i + 1) * n_eps)
            np.matmul(qd_coef[i], re, out=qd)
            np.matmul(b_coef[i], im, out=c)
            c /= quad
            np.abs(c, out=c)
            nd_ratio = np.divide(quad, diag_quad, out=diag_quad)
            if not quad.min() > 0:  # also when some (Q v, v) is NaN
                bad = ~(quad > 0)
                c[bad] = -np.inf
                nd_ratio[bad] = np.inf
            sampled_comm[blk] = c.max(axis=1)
            sampled_nd[blk] = nd_ratio.min(axis=1)
    sampled_comm /= eps_rows
    return sampled_comm, sampled_nd

