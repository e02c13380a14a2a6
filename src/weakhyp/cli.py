"""Command-line surface: config ingestion, dispatch, file emission.

Four subcommands share one config schema: ``check`` (root-separation and
discriminant verdicts), ``simulate`` (trajectory files), ``analyze``
(energy ledger, radius fits, continuation verdict) and ``symmetrizer``
(certificate of the quasi-symmetrizer inequalities).

Exit codes: 0 success/pass, 1 failed verdict or module error, 2 blow-up
abort, 3 stability abort.  Every emitted file carries the canonical config
hash; CSV numbers use 17 significant digits so outputs diff bitwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .energy import (
    WeightParams,
    build_energy_ledger,
    default_c0,
    master_estimate_check,
)
from .parallel import ordered_map
from .quasisym import (
    SymmetrizerCertificate,
    build_quasi_symmetrizer,
    sample_unit_vectors,
    verify_quasi_symmetrizer,
)
from .radius import InsufficientBandError, fit_decay
from .spectral import BlowUpError, StabilityError, Trajectory, companion_matrix, simulate
from .symbol import (
    UnsupportedOrderError,
    characteristic_roots,
    check_diam,
    discriminant_check,
)

__all__ = ["main", "dispatch"]


def _fmt(value: float) -> str:
    return "%.17g" % float(value)


def _sanitize(obj: Any) -> Any:
    """JSON-safe deep copy: numpy scalars unboxed, non-finite floats stringified."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if np.isnan(obj):
            return "nan"
        if np.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(out_dir: str, name: str, payload: dict, sha: str) -> None:
    payload = dict(payload)
    payload["config_sha256"] = sha
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _write_csv(out_dir: str, name: str, header: list[str], lines, sha: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        handle.write(f"# config_sha256={sha}\n")
        handle.write(",".join(header) + "\n")
        for line in lines:
            handle.write(line + "\n")


def _error_json(exc: Exception) -> str:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    field = getattr(exc, "field", None)
    if field:
        payload["field"] = field
    return json.dumps(_sanitize(payload), sort_keys=True)


def _emit_spectrum(cfg: RunConfig, traj: Trajectory, sha: str) -> None:
    m = traj.order
    header = ["t", "k"]
    for comp in range(m):
        header += [f"re_V{comp}", f"im_V{comp}"]
    # one %-format per row with _fmt's %.17g; the float view interleaves
    # each mode's cells as (re_V0, im_V0, re_V1, ...)
    row_fmt = "%.17g,%d" + ",%.17g,%.17g" * m
    v = np.ascontiguousarray(traj.v_series()).view(float)
    modes = traj.modes.tolist()

    def lines():
        for t, snap in zip(traj.times.tolist(), v):
            for k, cells in zip(modes, snap.tolist()):
                yield row_fmt % (t, k, *cells)

    _write_csv(cfg.output_dir, "spectrum.csv", header, lines(), sha)


def _emit_energies(cfg: RunConfig, ledger, sha: str) -> None:
    subset = [j for j in (1, 2, 4, 8) if j <= ledger.j_max]
    header = ["t", "E", *[f"E_{j}" for j in subset], "F", "G", "L", "r", "master_ratio"]

    def rows():
        for i, t in enumerate(ledger.times):
            yield [
                _fmt(t),
                _fmt(ledger.cinf[i]),
                *[_fmt(ledger.e_j[i, j]) for j in subset],
                _fmt(ledger.f_values[i]),
                _fmt(ledger.g_values[i]),
                _fmt(ledger.l_const),
                _fmt(ledger.r_values[i]),
                _fmt(ledger.master.per_time[i]),
            ]

    _write_csv(cfg.output_dir, "energies.csv", header, map(",".join, rows()), sha)


def _emit_radius(cfg: RunConfig, times, fits, sha: str) -> None:
    header = ["t", "r_hat", "residual", "band_lo", "band_hi", "s"]

    def rows():
        for t, fit in zip(times, fits):
            if fit is None:
                yield [_fmt(t), "nan", "nan", "0", "0", _fmt(cfg.s)]
            else:
                yield [
                    _fmt(t),
                    _fmt(fit.r_hat),
                    _fmt(fit.residual),
                    str(fit.band_lo),
                    str(fit.band_hi),
                    _fmt(fit.s),
                ]

    _write_csv(cfg.output_dir, "radius.csv", header, map(",".join, rows()), sha)


def _certificate_payload(cfg: RunConfig) -> dict:
    problem = cfg.problem()
    m = cfg.order
    times = np.linspace(0.0, cfg.horizon, cfg.cert_times)
    rng = np.random.default_rng(cfg.seed)
    samples = sample_unit_vectors(m, cfg.samples, rng)

    def one(t: float) -> SymmetrizerCertificate:
        coeffs = problem.coefficients_at(float(t))
        roots = characteristic_roots(coeffs)
        qs = build_quasi_symmetrizer(roots)
        return verify_quasi_symmetrizer(
            qs, companion_matrix(coeffs), cfg.eps_set, samples, nd_floor=cfg.nd_floor
        )

    certs = ordered_map(one, [float(t) for t in times], cfg.threads)
    aggregate = {
        "C_lower": max(c.c_lower for c in certs),
        "C_upper": max(c.c_upper for c in certs),
        "C_comm": max(c.c_comm for c in certs),
        "c_nd": min(c.c_nd for c in certs),
        "pass": all(c.passed for c in certs),
    }
    return {
        "command": "symmetrizer",
        "times": [float(t) for t in times],
        "eps_set": list(cfg.eps_set),
        "samples": cfg.samples,
        "nd_floor": cfg.nd_floor,
        "aggregate": aggregate,
        "per_time": [c.to_dict() for c in certs],
    }


def _run_or_abort(cfg: RunConfig, sha: str) -> tuple[Trajectory | None, int]:
    """Simulate; on abort write what exists plus the abort report."""
    problem = cfg.problem()
    try:
        traj = simulate(
            problem,
            K=cfg.modes,
            dt=cfg.dt,
            G=cfg.grid,
            snapshot_interval=cfg.snapshot_interval,
            blowup_ceiling=cfg.blowup_ceiling,
        )
    except StabilityError as exc:
        print(_error_json(exc), file=sys.stderr)
        _write_json(
            cfg.output_dir,
            "report.json",
            {"completed": False, "abort_reason": "stability", "message": str(exc)},
            sha,
        )
        _write_json(cfg.output_dir, "run_meta.json", cfg.to_meta(), sha)
        return None, 3
    except BlowUpError as exc:
        print(_error_json(exc), file=sys.stderr)
        partial = exc.trajectory
        if len(partial):
            _emit_spectrum(cfg, partial, sha)
        _write_json(
            cfg.output_dir,
            "report.json",
            {
                "completed": False,
                "abort_reason": partial.abort_reason,
                "abort_time": partial.abort_time,
                "last_valid_time": exc.last_valid_time,
                "message": str(exc),
            },
            sha,
        )
        _write_json(cfg.output_dir, "run_meta.json", cfg.to_meta(), sha)
        return None, 2
    return traj, 0


def _cmd_check(cfg: RunConfig, sha: str) -> int:
    problem = cfg.problem()
    grid = np.linspace(0.0, cfg.horizon, cfg.check_grid)
    diam = check_diam(problem, grid)
    disc_payload = None
    if cfg.order in (2, 3):
        holds = True
        delta_min = float("inf")
        ratio_min = float("inf")
        failures: list[float] = []
        for t in grid:
            try:
                result = discriminant_check(problem.coefficients_at(float(t)))
            except UnsupportedOrderError:
                break
            delta_min = min(delta_min, result.delta)
            ratio_min = min(ratio_min, result.ratio)
            if not result.holds(cfg.disc_threshold):
                holds = False
                failures.append(float(t))
        disc_payload = {
            "m": cfg.order,
            "c": cfg.disc_threshold,
            "holds": holds,
            "delta_min": delta_min,
            "ratio_min": ratio_min,
            "failure_times": failures[:32],
        }
    payload = {
        "command": "check",
        "satisfied": diam.satisfied,
        "diam": diam.to_dict(),
        "discriminant": disc_payload,
    }
    _write_json(cfg.output_dir, "report.json", payload, sha)
    _write_json(cfg.output_dir, "run_meta.json", cfg.to_meta(), sha)
    return 0 if diam.satisfied else 1


def _cmd_simulate(cfg: RunConfig, sha: str) -> int:
    traj, code = _run_or_abort(cfg, sha)
    if traj is None:
        return code
    _emit_spectrum(cfg, traj, sha)
    final = traj.state_at(len(traj) - 1)
    payload = {
        "command": "simulate",
        "completed": True,
        "snapshots": len(traj),
        "dt": traj.dt,
        "final_time": float(traj.times[-1]),
        "final_sup_v": float(np.linalg.norm(final.V, axis=1).max()),
        "final_reality_defect": final.reality_defect(),
    }
    _write_json(cfg.output_dir, "report.json", payload, sha)
    _write_json(cfg.output_dir, "run_meta.json", cfg.to_meta(), sha)
    return 0


def _cmd_analyze(cfg: RunConfig, sha: str) -> int:
    problem = cfg.problem()
    traj, code = _run_or_abort(cfg, sha)
    if traj is None:
        return code
    c_target = cfg.c_override if cfg.c_override is not None else 10.0
    c0 = cfg.c0_override if cfg.c0_override is not None else default_c0(problem)
    n_exponent = cfg.n_override
    if n_exponent is None and cfg.nonlinearity >= 1:
        # loss exponent is calibrated on the linear version of the problem
        linear = dataclasses.replace(problem, nonlinearity=0)
        calib = simulate(
            linear,
            K=cfg.modes,
            dt=cfg.dt,
            G=cfg.grid,
            snapshot_interval=cfg.snapshot_interval,
            blowup_ceiling=cfg.blowup_ceiling,
        )
        report = master_estimate_check(
            calib,
            WeightParams(c0=c0, horizon=cfg.horizon, loss_exponent=cfg.order + 1),
            c_target,
        )
        n_exponent = report.fitted_n if report.fitted_n is not None else cfg.order + 1
    ledger = build_energy_ledger(
        traj,
        problem,
        c0=c0,
        n_exponent=n_exponent,
        c_const=cfg.c_override,
        c_target=c_target,
        j_max=cfg.j_max,
        r0=cfg.r0,
        eta=cfg.eta,
    )
    _emit_spectrum(cfg, traj, sha)
    if cfg.energies:
        _emit_energies(cfg, ledger, sha)
    fits: list = []
    if cfg.radius:
        u_series = traj.u_hat_series()

        def fit_row(i: int):
            try:
                return fit_decay(u_series[i], s=cfg.s)
            except InsufficientBandError:
                return None

        fits = ordered_map(fit_row, range(len(traj)), cfg.threads)
        _emit_radius(cfg, traj.times, fits, sha)
    payload = {
        "command": "analyze",
        "completed": True,
        "snapshots": len(traj),
        "ledger": ledger.to_dict(),
    }
    if cfg.radius:
        good = [f.r_hat for f in fits if f is not None]
        payload["radius_summary"] = {
            "fitted_snapshots": len(good),
            "min_r_hat": min(good) if good else None,
            "final_r_hat": good[-1] if good else None,
        }
    _write_json(cfg.output_dir, "report.json", payload, sha)
    _write_json(cfg.output_dir, "run_meta.json", cfg.to_meta(), sha)
    if cfg.symmetrizer_certificate:
        _write_json(cfg.output_dir, "certificate.json", _certificate_payload(cfg), sha)
    return 0 if ledger.continuation.passed else 1


def _cmd_symmetrizer(cfg: RunConfig, sha: str) -> int:
    payload = _certificate_payload(cfg)
    _write_json(cfg.output_dir, "certificate.json", payload, sha)
    _write_json(cfg.output_dir, "run_meta.json", cfg.to_meta(), sha)
    return 0 if payload["aggregate"]["pass"] else 1


_COMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "symmetrizer": _cmd_symmetrizer,
}


def dispatch(command: str, cfg: RunConfig) -> int:
    """Run one subcommand against a validated config; returns the exit code."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    sha = cfg.sha256()
    try:
        return _COMMANDS[command](cfg, sha)
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakhyp",
        description="Spectral diagnostics for semilinear weakly hyperbolic equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "root-separation (diam) and discriminant verdicts over the horizon",
        "simulate": "integrate the mode system and write trajectory files",
        "analyze": "simulate, then build the energy ledger, radius fits and verdicts",
        "symmetrizer": "certify the quasi-symmetrizer inequalities along the horizon",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the YAML run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="override worker count")
        p.add_argument("--output", default=None, help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config).with_overrides(
            seed=args.seed, threads=args.threads, output_dir=args.output
        )
    except (ConfigError, OSError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 1
    return dispatch(args.command, cfg)


if __name__ == "__main__":
    sys.exit(main())
