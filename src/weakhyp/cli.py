"""Command-line surface: config ingestion, dispatch, file emission.

Four subcommands share one config schema: ``check`` (root-separation and
discriminant verdicts), ``simulate`` (trajectory files), ``analyze``
(energy ledger, radius fits, continuation verdict) and ``symmetrizer``
(certificate of the quasi-symmetrizer inequalities, with its quotients at
the extremal vectors and a random-direction audit of the two rows that set
its aggregate).

Exit codes: 0 success/pass, 1 failed verdict or module error, 2 blow-up
abort, 3 stability abort.  Each command takes the config and the run's
spectrum sink and returns its exit code and its files, or raises;
``dispatch`` alone writes them, with ``run_meta.json`` added.  Every emitted
file carries the canonical config hash; CSV numbers use 17 significant
digits so outputs diff bitwise.  The run is real, so row -k of spectrum.csv
is written as the exact conjugate of row k.

spectrum.csv is formatted while the RK4 loop runs: ``simulate`` hands each
recorded snapshot to the sink, which at the first snapshot opens an unlinked
temporary file for the text and, on POSIX, forks one child and streams it
the raw chains over a pipe.  The child appends each snapshot's text to the
file as it arrives and reports through its exit status; the parent copies
the file into spectrum.csv.  Where there is no ``os.fork`` the sink appends
the same text itself, as each snapshot is taken.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .energy import (
    DEFAULT_C_TARGET,
    WeightParams,
    build_energy_ledger,
    default_c0,
    master_estimate_check,
)
from .parallel import ordered_map
from .quasisym import (
    audit_binding_rows,
    build_quasi_symmetrizer,
    verify_quasi_symmetrizer,
)
from .radius import InsufficientBandError, fit_decay
from .spectral import BlowUpError, StabilityError, Trajectory, companion_stack, companion_vectors, simulate
from .symbol import (
    characteristic_roots,
    check_diam,
    discriminant_check,
)

__all__ = ["main", "dispatch"]


def _json_float(value: float) -> str:
    if value != value:
        return '"nan"'
    if value in (math.inf, -math.inf):
        return '"inf"' if value > 0 else '"-inf"'
    return float.__repr__(value)


def _json_text(obj: Any, indent: str = "") -> str:
    """JSON text of ``obj`` with sorted keys and an indent of 2.

    For str keys and finite Python values the bytes are those of
    ``json.dumps(obj, sort_keys=True, indent=2)``.  Beyond that, non-finite
    floats are written as the strings "nan", "inf" and "-inf", keys are
    passed through str, and numpy arrays, integers, floats and bools are
    written as their Python values.  CPython's ``json`` runs its pure-Python
    encoder under an indent; this writer takes the same decisions in fewer
    calls, and joins a list of floats with one ``float.__repr__`` map.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = ",\n" + inner
        try:
            body = sep.join(map(float.__repr__, obj))
        except TypeError:  # not all floats
            body = None
        if body is None or "n" in body:  # nan and inf are written as strings
            body = sep.join([_json_text(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            [
                inner + encode_basestring_ascii(key) + ": " + _json_text(value, inner)
                for key, value in sorted({str(k): v for k, v in obj.items()}.items())
            ]
        )
        return "{\n" + body + "\n" + indent + "}"
    if isinstance(obj, np.ndarray):
        return _json_text(obj.tolist(), indent)
    if isinstance(obj, np.integer):
        return int.__repr__(int(obj))
    if isinstance(obj, np.floating):
        return _json_float(float(obj))
    if isinstance(obj, np.bool_):
        return "true" if obj else "false"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_files(out_dir: str, files: dict, sha: str) -> None:
    """Write each file, stamped with the config hash: the one place that opens outputs.

    The output directory is created here, so a run that writes nothing
    leaves nothing behind.  A dict is a JSON payload; anything else is a CSV
    ``(header, body)`` pair, whose body is a list of text chunks or a text
    file, copied as it is.
    """
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
            if isinstance(content, dict):
                handle.write(_json_text({**content, "config_sha256": sha}) + "\n")
                continue
            header, body = content
            handle.write(f"# config_sha256={sha}\n" + ",".join(header) + "\n")
            if isinstance(body, list):
                handle.writelines(body)
            else:
                shutil.copyfileobj(body, handle)


def _error_json(exc: Exception) -> str:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    field = getattr(exc, "field", None)
    if field:
        payload["field"] = field
    return json.dumps(payload, sort_keys=True)


def _spectrum_header(m: int) -> list[str]:
    return ["t", "k"] + [f"{part}_V{c}" for c in range(m) for part in ("re", "im")]


def _spectrum_rows(K: int, m: int) -> str:
    """The %.17g template of rows 0..K, with '@' for the time and ';' marking the signs to toggle."""
    row = ",".join(["%.17g;%.17g"] * m)
    return "\n".join([f"@;{k}," + row for k in range(K + 1)])


def _spectrum_block(t: float, chain: np.ndarray, rows: str) -> str:
    """spectrum.csv's rows -K..K at time t, from the (K+1, m) chain of modes 0..K: the one formatter.

    The run is real, so row -k is conj(V_k).  Rows 0..K are formatted by the
    template ``rows``, in which a ';' marks the mode number and every
    imaginary cell; rows -K..-1 are that text reversed with every marked
    sign toggled.  %.17g writes -x as '-' and the text of x, except for a
    NaN, whose sign it drops, so the bytes are those of formatting conj(V_k)
    cell by cell.
    """
    text = rows % tuple(companion_vectors(chain).view(float).ravel().tolist())
    lower = text.replace(";", ";-").replace(";--", ";").replace(";-nan", ";nan")
    block = "\n".join(lower.split("\n")[:0:-1]) + "\n" + text + "\n"
    return block.replace(";", ",").replace("@", "%.17g" % t)


def _spectrum_child(source: int, text, shape: tuple[int, int], rows: str):
    """The formatter process: never returns, and reports only through its exit status.

    It reads snapshots from ``source`` (the time as a float64, then the raw
    chain of ``shape``) and appends each one's block to the file ``text`` as
    it arrives.  It exits 0 when the text is complete, and 1 when formatting
    raised, with ``Type: message`` in the text's place.
    """
    status = 2
    try:
        size = 8 + 16 * shape[0] * shape[1]
        try:
            with open(source, "rb") as snapshots:
                while record := snapshots.read(size):
                    t = float(np.frombuffer(record, float, 1)[0])
                    chain = np.frombuffer(record, complex, offset=8).reshape(shape)
                    text.write(_spectrum_block(t, chain, rows))
            text.flush()
            status = 0
        except Exception as exc:  # raised again in the parent
            text.seek(0)
            text.truncate()
            text.write(f"{type(exc).__name__}: {exc}")
            text.flush()
            status = 1
    finally:
        os._exit(status)


class _SpectrumSink:
    """spectrum.csv's text of a run, fed by ``simulate``'s snapshot hook; a context manager that reaps.

    The text has one home, an unlinked temporary file opened at the first
    snapshot.  Where ``os.fork`` exists, that snapshot forks one child that
    appends each snapshot's block to the file as it arrives
    (``_spectrum_child``), while the RK4 loop runs on; ``csv`` ends the feed
    and reaps the child, so a failed child raises before any output file is
    opened.  Without ``os.fork`` each block is appended as the snapshot is
    taken.  Either way the text is ``_spectrum_block``'s, so the bytes are
    the same.  ``close`` reaps a child whose text was never read, and closes
    the file.
    """

    def __init__(self) -> None:
        self.shape: tuple[int, ...] | None = None
        self.rows = ""
        self.text = None  # the temporary file that holds the text
        self.pid: int | None = None
        self.feed: int | None = None  # write end of the snapshot pipe

    def __enter__(self) -> "_SpectrumSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fork(self) -> None:
        source, feed = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(source)
            os.close(feed)
            raise
        if pid == 0:
            os.close(feed)
            _spectrum_child(source, self.text, self.shape, self.rows)
        os.close(source)
        self.pid, self.feed = pid, feed

    def _close_feed(self) -> None:
        if self.feed is not None:
            os.close(self.feed)
            self.feed = None

    def add(self, t: float, chain: np.ndarray) -> None:
        """Take one recorded snapshot; the first one opens the file and forks the child, where there is a fork."""
        if self.text is None:
            self.shape = chain.shape
            self.rows = _spectrum_rows(chain.shape[0] - 1, chain.shape[1])
            self.text = tempfile.TemporaryFile("w+", encoding="utf-8", errors="replace")
            if hasattr(os, "fork"):
                self._fork()
        if self.pid is None:
            self.text.write(_spectrum_block(t, chain, self.rows))
        elif self.feed is not None:
            record = memoryview(np.float64(t).tobytes() + chain.tobytes())
            try:
                while record:
                    record = record[os.write(self.feed, record) :]
            except BrokenPipeError:  # the child has stopped; ``csv`` raises its error
                self._close_feed()

    def csv(self) -> tuple[list[str], Any]:
        """The CSV ``(header, file)`` of every snapshot taken; raises if the child failed."""
        code = 0
        if self.pid is not None:
            self._close_feed()
            _, status = os.waitpid(self.pid, 0)
            self.pid = None
            code = os.waitstatus_to_exitcode(status)
        self.text.seek(0)
        if code == 1:
            raise RuntimeError(f"spectrum.csv formatter failed: {self.text.read()}")
        if code:
            raise RuntimeError("spectrum.csv formatter ended without a result")
        return _spectrum_header(self.shape[1]), self.text

    def close(self) -> None:
        """Reap a child whose text was never read, and close the file."""
        self._close_feed()
        if self.pid is not None:
            os.waitpid(self.pid, 0)
            self.pid = None
        if self.text is not None:
            self.text.close()


def _energies_csv(ledger) -> tuple[list[str], list[str]]:
    subset = [j for j in (1, 2, 4, 8) if j <= ledger.j_max]
    header = ["t", "E", *[f"E_{j}" for j in subset], "F", "G", "L", "r", "master_ratio"]
    table = np.column_stack(
        [
            ledger.times,
            ledger.e_j[:, [0, *subset]],
            ledger.energies.f_values,
            ledger.energies.g_values,
            np.full(len(ledger.times), ledger.l_const),
            ledger.r_values,
            ledger.master.per_time,
        ]
    )
    row = ",".join(["%.17g"] * len(header)) + "\n"
    return header, [row % tuple(cells) for cells in table.tolist()]


def _radius_csv(cfg: RunConfig, times, fits) -> tuple[list[str], list[str]]:
    """radius.csv; a snapshot without a fit has r_hat and residual nan and an empty band."""
    header = ["t", "r_hat", "residual", "band_lo", "band_hi", "s"]
    rows = [
        (t, math.nan, math.nan, 0, 0, cfg.s)
        if fit is None
        else (t, fit.r_hat, fit.residual, fit.band_lo, fit.band_hi, fit.s)
        for t, fit in zip(times.tolist(), fits)
    ]
    return header, ["%.17g,%.17g,%.17g,%d,%d,%.17g\n" % row for row in rows]


def _certificate_payload(cfg: RunConfig) -> dict:
    """certificate.json; no verdict reads the witness gap, the eps slope or the sampled values."""
    times = np.linspace(0.0, cfg.horizon, cfg.cert_times)
    table = cfg.problem().coefficient_table(times)
    qs = build_quasi_symmetrizer(characteristic_roots(table, times=times))
    companions = companion_stack(table)
    certs = verify_quasi_symmetrizer(qs, companions, cfg.eps_set, nd_floor=cfg.nd_floor)
    sampled_comm, sampled_nd = audit_binding_rows(qs, companions, certs, cfg.samples, cfg.seed)
    aggregate = {
        "C_lower": max(c.c_lower for c in certs),
        "C_upper": max(c.c_upper for c in certs),
        "C_comm": max(c.c_comm for c in certs),
        "c_nd": min(c.c_nd for c in certs),
        "c_nd_eps_slope": min(certs, key=lambda c: c.c_nd).c_nd_eps_slope,
        "witness_gap": max(c.witness_gap for c in certs),
        "sampled_C_comm": sampled_comm,
        "sampled_c_nd": sampled_nd,
        "pass": all(c.passed for c in certs),
    }
    return {
        "command": "symmetrizer",
        "times": times,
        "eps_set": list(cfg.eps_set),
        "samples": cfg.samples,
        "nd_floor": cfg.nd_floor,
        "aggregate": aggregate,
        "per_time": [c.to_dict() for c in certs],
    }


class _GuardAbort(Exception):
    """A guard stopped the run: its exit code, its error, and the files of that path."""

    def __init__(self, code: int, error: Exception, files: dict):
        super().__init__(str(error))
        self.code, self.error, self.files = code, error, files


def _simulate(
    cfg: RunConfig, calibrate: bool = False, *, spectrum: _SpectrumSink | None = None
) -> Trajectory:
    """Integrate the problem; a stability veto or a blow-up of the run raises _GuardAbort.

    Each snapshot is fed to ``spectrum``, whose text is the spectrum.csv of
    the run, or of a blow-up's partial record.  A blow-up of the linear
    calibration member alone is not an abort of the run: it propagates as an
    error (exit 1).
    """
    try:
        return simulate(
            cfg.problem(),
            K=cfg.modes,
            dt=cfg.dt,
            snapshot_interval=cfg.snapshot_interval,
            blowup_ceiling=cfg.blowup_ceiling,
            calibrate=calibrate,
            on_snapshot=None if spectrum is None else spectrum.add,
        )
    except StabilityError as exc:
        report = {"completed": False, "abort_reason": "stability", "message": str(exc)}
        raise _GuardAbort(3, exc, {"report.json": report}) from exc
    except BlowUpError as exc:
        if exc.member != 0:
            raise
        partial = exc.trajectory
        files: dict = {"spectrum.csv": spectrum.csv()} if spectrum is not None and len(partial) else {}
        files["report.json"] = {
            "completed": False,
            "abort_reason": partial.abort_reason,
            "abort_time": partial.abort_time,
            "last_valid_time": exc.last_valid_time,
            "message": str(exc),
        }
        raise _GuardAbort(2, exc, files) from exc


def _integration_facts(cfg: RunConfig, traj: Trajectory) -> dict:
    """How far a completed run went and how close it came to the step and blow-up limits."""
    return {
        "steps": traj.steps,
        "dt": traj.dt,
        "stability_ratio": traj.stability_ratio,
        "peak_sup_v_ratio": traj.peak_sup_v / cfg.blowup_ceiling,
    }


def _cmd_check(cfg: RunConfig, spectrum: _SpectrumSink) -> tuple[int, dict]:
    problem = cfg.problem()
    grid = np.linspace(0.0, cfg.horizon, cfg.check_grid)
    diam = check_diam(problem, grid)
    disc_payload = None
    if cfg.order in (2, 3):
        disc = discriminant_check(problem.coefficient_table(grid))
        holds = disc.holds(cfg.disc_threshold)
        disc_payload = {
            "m": cfg.order,
            "c": cfg.disc_threshold,
            "holds": bool(holds.all()),
            "delta_min": float(disc.delta.min()),
            "ratio_min": float(disc.ratio.min()),
            "failure_times": grid[~holds][:32],
        }
    payload = {
        "command": "check",
        "satisfied": diam.satisfied,
        "diam": diam.to_dict(),
        "discriminant": disc_payload,
    }
    return (0 if diam.satisfied else 1), {"report.json": payload}


def _cmd_simulate(cfg: RunConfig, spectrum: _SpectrumSink) -> tuple[int, dict]:
    traj = _simulate(cfg, spectrum=spectrum)
    payload = {
        "command": "simulate",
        "completed": True,
        "snapshots": len(traj),
        "dt": traj.dt,
        "final_time": float(traj.times[-1]),
        "final_sup_v": float(traj.v_norms()[-1].max()),
        "integration": _integration_facts(cfg, traj),
    }
    return 0, {"spectrum.csv": spectrum.csv(), "report.json": payload}


def _cmd_analyze(cfg: RunConfig, spectrum: _SpectrumSink) -> tuple[int, dict]:
    """Simulate, then ledger and fits; the one place that resolves C0, N and the scan target C."""
    problem = cfg.problem()
    calibrate = cfg.n_override is None and cfg.nonlinearity >= 1
    traj = _simulate(cfg, calibrate=calibrate, spectrum=spectrum)
    c_target = cfg.c_override if cfg.c_override is not None else DEFAULT_C_TARGET
    c0 = cfg.c0_override if cfg.c0_override is not None else default_c0(problem)
    n_exponent = cfg.n_override
    sources = {"C0": "default" if cfg.c0_override is None else "override", "N": "override"}
    sources["C"] = "measured" if cfg.c_override is None else "override"
    if n_exponent is None:
        # fitted on the linear run: the linear version of the problem,
        # integrated alongside it in the same loop, or at nu = 0 the run itself
        linear = traj.calibration if calibrate else traj
        trial = WeightParams(c0=c0, horizon=cfg.horizon, loss_exponent=cfg.order + 1)
        fitted = master_estimate_check(linear, trial, c_target).fitted_n
        n_exponent = cfg.order + 1 if fitted is None else fitted
        sources["N"] = "fallback" if fitted is None else "fitted"
        if n_exponent > cfg.j_max:
            raise ConfigError(
                f"{sources['N']} loss exponent N={n_exponent} exceeds J_max={cfg.j_max}",
                field="constants.J_max",
            )
    ledger = build_energy_ledger(
        traj,
        problem,
        c0=c0,
        n_exponent=n_exponent,
        c_const=cfg.c_override,
        c_target=c_target,
        j_max=cfg.j_max,
        r0=cfg.r0,
    )
    u_series = traj.u_hat_series()

    def fit_row(i: int):
        try:
            return fit_decay(u_series[i], s=cfg.s)
        except InsufficientBandError:
            return None

    fits = ordered_map(fit_row, range(len(traj)), cfg.threads)
    good = [f.r_hat for f in fits if f is not None]
    files = {
        "spectrum.csv": spectrum.csv(),
        "energies.csv": _energies_csv(ledger),
        "radius.csv": _radius_csv(cfg, traj.times, fits),
        "report.json": {
            "command": "analyze",
            "completed": True,
            "snapshots": len(traj),
            "ledger": ledger.to_dict(),
            "constant_sources": sources,
            "integration": {
                **_integration_facts(cfg, traj),
                "linear_calibration": traj.calibration is not None,
                "galerkin_residual_estimate": traj.galerkin_residual,
            },
            "radius_summary": {
                "fitted_snapshots": len(good),
                "min_r_hat": min(good) if good else None,
                "final_r_hat": good[-1] if good else None,
            },
        },
    }
    if cfg.symmetrizer_certificate:
        files["certificate.json"] = _certificate_payload(cfg)
    return (0 if ledger.continuation.passed else 1), files


def _cmd_symmetrizer(cfg: RunConfig, spectrum: _SpectrumSink) -> tuple[int, dict]:
    payload = _certificate_payload(cfg)
    return (0 if payload["aggregate"]["pass"] else 1), {"certificate.json": payload}


_COMMANDS = {
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "symmetrizer": _cmd_symmetrizer,
}


def dispatch(command: str, cfg: RunConfig) -> int:
    """Run one subcommand against a validated config, write its files; returns the exit code.

    Files are written only when the command returns an exit code or a guard
    aborts the run; an error (exit 1) writes none, and creates no output
    directory.  Floating-point warnings are silenced: non-finite values
    reach the verdicts, and stderr carries at most the one JSON error, so a
    guard's error is printed once its files are written.  The run's
    spectrum sink, which only ``simulate`` and ``analyze`` feed, is closed
    (its formatter process reaped) before this returns, on every path.
    """
    abort = None
    with warnings.catch_warnings(), _SpectrumSink() as spectrum:
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            try:
                code, files = _COMMANDS[command](cfg, spectrum)
            except _GuardAbort as exc:
                abort, code, files = exc, exc.code, exc.files
            files["run_meta.json"] = cfg.to_meta()
            _write_files(cfg.output_dir, files, cfg.sha256())
            if abort is not None:
                print(_error_json(abort.error), file=sys.stderr)
            return code
        except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
            print(_error_json(exc), file=sys.stderr)
            return 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later ``main`` call."""
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
