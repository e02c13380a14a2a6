"""The four benchmark workloads: seeded configs, command sequences, output checks.

Each workload turns ``--seed`` into one YAML config (the config ``seed`` plus
an initial-data amplitude drawn in a +-5% band around a nominal value), the
CLI argument lists of one iteration, an independent reference for those
inputs, and a check of every invocation's outputs against it.  weakhyp sees
only the config file and its CLI arguments.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from reference import (
    mode_system_reference,
    snapshot_times,
    spectrum_rel_err,
    wave_reference,
)

CERT_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cert_reference.json")
AMPLITUDE_BAND = 0.05
# A correct run sits near 1e-10 at worst; anything above this is a wrong answer.
REL_ERR_LIMIT = 1e-8
MIN_R_HAT = 0.2
CERT_RTOL = 1e-9

CERTIFY_M3 = {
    "m": 3,
    "T": 1.0,
    "coefficients": ["0", "-t^2", "0"],
    "nu": 0,
    "check_grid": 8001,
    "certificate": {"times": 129, "samples": 10000, "eps_set": [1.0, 0.1, 0.01]},
}


def draw_amplitude(seed: int, nominal: float) -> float:
    rng = np.random.default_rng(seed)
    return nominal * (1.0 + AMPLITUDE_BAND * rng.uniform(-1.0, 1.0))


@dataclass
class Outcome:
    """Verdict on one invocation: passed checks, relative error, first failure."""

    ok: bool
    rel_err: float
    message: str = ""


def _fail(message: str) -> Outcome:
    return Outcome(False, 0.0, message)


def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
        return json.load(handle)


def read_spectrum(source, K: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """spectrum.csv (a path or binary file) -> (snapshot times, companion vectors (S, 2K+1, m))."""
    data = np.loadtxt(source, delimiter=",", skiprows=2, ndmin=2)
    rows = 2 * K + 1
    if data.shape[1] != 2 + 2 * m or data.shape[0] % rows:
        raise ValueError(f"spectrum.csv has shape {data.shape}, expected rows of {rows} modes")
    S = data.shape[0] // rows
    if not np.array_equal(data[:, 1].reshape(S, rows), np.tile(np.arange(-K, K + 1), (S, 1))):
        raise ValueError("spectrum.csv modes are not -K..K per snapshot")
    v = (data[:, 2::2] + 1j * data[:, 3::2]).reshape(S, rows, m)
    return data[::rows, 0], v


def check_spectrum(out_dir: str, K: int, m: int, times: np.ndarray, ref: np.ndarray, memo: dict) -> Outcome:
    """Compare spectrum.csv with the reference.

    ``memo`` maps the SHA-256 of a file already checked to its outcome, so a
    byte-identical repeat of a checked output is not parsed again.
    """
    with open(os.path.join(out_dir, "spectrum.csv"), "rb") as handle:
        raw = handle.read()
    digest = hashlib.sha256(raw).hexdigest()
    if digest not in memo:
        memo[digest] = _compare_spectrum(io.BytesIO(raw), K, m, times, ref)
    return memo[digest]


def _compare_spectrum(source, K: int, m: int, times: np.ndarray, ref: np.ndarray) -> Outcome:
    got_times, v = read_spectrum(source, K, m)
    if got_times.shape != times.shape or not np.allclose(got_times, times, rtol=0, atol=1e-12):
        return _fail(f"snapshot times differ from the {times.size} expected")
    err = spectrum_rel_err(v, ref)
    if not err <= REL_ERR_LIMIT:
        return Outcome(False, err, f"spectrum deviates from reference by {err:.3g}")
    return Outcome(True, err)


def check_analyze(code: int, out_dir: str, K: int, m: int, times, ref, min_r_hat, memo: dict) -> Outcome:
    """Exit code 0, continuation passed, optional r_hat floor, spectrum accuracy."""
    if code != 0:
        return _fail(f"exit code {code}")
    report = _read_json(out_dir, "report.json")
    if not report.get("completed") or not report["ledger"]["continuation"]["passed"]:
        return _fail("continuation verdict not passed")
    if min_r_hat is not None:
        r_hat = report.get("radius_summary", {}).get("min_r_hat")
        if r_hat is None or not r_hat >= min_r_hat:
            return _fail(f"min r_hat {r_hat} below {min_r_hat}")
    return check_spectrum(out_dir, K, m, times, ref, memo)


def check_certificate(code: int, out_dir: str, frozen: dict) -> Outcome:
    """Exit code 0, certificate pass, aggregate constants match the frozen reference."""
    if code != 0:
        return _fail(f"exit code {code}")
    agg = _read_json(out_dir, "certificate.json")["aggregate"]
    if agg.get("pass") is not True:
        return _fail("certificate did not pass")
    err = 0.0
    for name, text in frozen.items():
        want = float(text)
        err = max(err, abs(float(agg[name]) - want) / abs(want))
    if not err <= CERT_RTOL:
        return Outcome(False, err, f"aggregate constants deviate by {err:.3g}")
    return Outcome(True, err)


def check_roots_report(code: int, out_dir: str) -> Outcome:
    """``check`` on lam^3 - t^2 lam: diam satisfied, M(t) = 1 for t > 0, M(0) = 0."""
    if code != 0:
        return _fail(f"exit code {code}")
    report = _read_json(out_dir, "report.json")
    if report.get("satisfied") is not True or not report["discriminant"]["holds"]:
        return _fail("diam or discriminant verdict not satisfied")
    ratios = np.asarray(report["diam"]["M"], dtype=float)
    if ratios.size != CERTIFY_M3["check_grid"] or ratios[0] != 0.0:
        return _fail("diam ratios do not cover the grid or M(0) != 0")
    err = float(np.abs(ratios[1:] - 1.0).max())
    if not err <= REL_ERR_LIMIT:
        return Outcome(False, err, f"diam ratio deviates from 1 by {err:.3g}")
    return Outcome(True, err)


@dataclass
class Prepared:
    """One seeded instance of a workload, ready to run and check."""

    config: dict
    commands: list[list[str]]  # CLI arguments per invocation, without --config/--output
    check: Callable[[int, int, str], Outcome]  # (invocation index, exit code, output dir)

    def verify(self, index: int, code: int, out_dir: str) -> Outcome:
        """check(), with missing or malformed output counted as a failure."""
        try:
            return self.check(index, code, out_dir)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return _fail(f"missing or malformed output: {exc!r}")


def _weak(K: int, dt: float) -> Callable[[int], Prepared]:
    def prepare(seed: int) -> Prepared:
        amp = draw_amplitude(seed, 0.01)
        config = {
            "m": 2,
            "T": 1.0,
            "coefficients": ["0", "-t^2"],
            "nu": 2,
            "initial": [f"{amp!r}*0.75/(1.25 - cos(x))", "0"],
            "K": K,
            "dt": dt,
            "snapshot_interval": 0.05,
            "constants": {"r0": 0.18, "J_max": 24},
            "seed": seed,
        }
        times = snapshot_times(1.0, dt, 0.05)
        chain = np.zeros((2 * K + 1, 2), dtype=complex)
        # Fourier coefficients of 0.75/(1.25 - cos x) are exactly 2^-|k|
        chain[:, 0] = amp * 0.5 ** np.abs(np.arange(-K, K + 1))
        ref = mode_system_reference(lambda t: (0.0, -t * t), chain, 2, times)
        memo: dict[str, Outcome] = {}

        def check(_: int, code: int, out_dir: str) -> Outcome:
            return check_analyze(code, out_dir, K, 2, times, ref, MIN_R_HAT, memo)

        return Prepared(config, [["analyze"]], check)

    return prepare


def _wave_dense(seed: int) -> Prepared:
    amp = draw_amplitude(seed, 1.0)
    K, dt = 128, 0.002
    config = {
        "m": 2,
        "T": 1.0,
        "coefficients": ["0", "-1"],
        "nu": 0,
        "initial": [f"{amp!r}*cos(x)", "0"],
        "K": K,
        "dt": dt,
        "snapshot_interval": dt,
        "diagnostics": {"symmetrizer_certificate": True},
        "certificate": {"samples": 2000, "times": 5},
        "seed": seed,
    }
    times = snapshot_times(1.0, dt, dt)
    ref = wave_reference(amp, K, times)
    memo: dict[str, Outcome] = {}

    def check(_: int, code: int, out_dir: str) -> Outcome:
        outcome = check_analyze(code, out_dir, K, 2, times, ref, None, memo)
        if outcome.ok and _read_json(out_dir, "certificate.json")["aggregate"]["pass"] is not True:
            return _fail("wave certificate did not pass")
        return outcome

    return Prepared(config, [["analyze"]], check)


def _certify_m3(seed: int) -> Prepared:
    with open(CERT_REFERENCE, encoding="utf-8") as handle:
        frozen = json.load(handle)
    cert = CERTIFY_M3["certificate"]
    if frozen["times"] != cert["times"] or frozen["eps_set"] != cert["eps_set"]:
        raise ValueError("cert_reference.json is stale; rerun perfbench/cert_reference.py")
    amp = draw_amplitude(seed, 1.0)
    config = dict(CERTIFY_M3, initial=[f"{amp!r}*cos(x)", "0", "0"], seed=seed)

    def check(index: int, code: int, out_dir: str) -> Outcome:
        if index == 0:
            return check_roots_report(code, out_dir)
        return check_certificate(code, out_dir, frozen["aggregate"])

    return Prepared(config, [["check"], ["symmetrizer", "--threads", "2"]], check)


WORKLOADS: dict[str, Callable[[int], Prepared]] = {
    "weak_k512": _weak(512, 1.0 / 427),
    "weak_k128": _weak(128, 1e-3),
    "wave_dense": _wave_dense,
    "certify_m3": _certify_m3,
}
