"""Run configuration: schema, defaults, validation, canonical hashing.

The config file is YAML.  Top-level keys: m, T, coefficients, nu, initial,
K, G, dt, snapshot_interval, seed, threads, output_dir, blowup_ceiling,
check_grid, plus three nested sections: ``diagnostics``
(energies, radius, symmetrizer_certificate),
``constants`` (C0, N, C, c, r0, J_max, eta, s, k_gevrey, lambda_k) and
``certificate`` (eps_set, samples, nd_floor, times).  Unknown keys are
rejected; every violation names the offending field path.

The canonical hash covers the semantic fields only: ``threads`` and
``output_dir`` affect where and how fast outputs are produced, never their
bytes, so they stay outside the hash and outside the echoed metadata.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Mapping

import yaml

from .equation import CoefficientSpec
from .exprdsl import ExpressionError, parse
from .spectral import _next_power_of_two, default_grid_size

__all__ = ["ConfigError", "RunConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        prefix = f'config error at "{field}": ' if field else "config error: "
        super().__init__(prefix + message)


def _reject_unknown(data: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        path = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ConfigError("unknown key", field=path)


def _as_int(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", field=field)
    return value


def _as_float(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=field)
    return float(value)


def _as_bool(value: Any, field: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected true/false, got {value!r}", field=field)
    return value


def _as_expr_list(value: Any, count: int, var: str, field: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError("expected a list of expression strings", field=field)
    if len(value) != count:
        raise ConfigError(
            f"expected exactly {count} expression entries, got {len(value)}", field=field
        )
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise ConfigError(f"expected an expression string, got {item!r}", field=f"{field}[{i}]")
        source = str(item)
        try:
            parse(source, allowed_vars=(var,))
        except ExpressionError as exc:
            raise ConfigError(str(exc), field=f"{field}[{i}]") from exc
        out.append(source)
    return tuple(out)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; every field is echoed in run metadata."""

    order: int
    horizon: float
    coefficients: tuple[str, ...]
    initial: tuple[str, ...]
    nonlinearity: int = 0
    modes: int = 64
    grid: int = 256
    dt: float = 1e-3
    snapshot_interval: float = 0.01
    energies: bool = True
    radius: bool = True
    symmetrizer_certificate: bool = False
    c0_override: float | None = None
    n_override: int | None = None
    c_override: float | None = None
    disc_threshold: float = 0.01
    r0: float = 0.25
    j_max: int = 24
    eta: float = 1.0
    s: float = 1.0
    k_gevrey: int | None = None
    lambda_k: float = 1.0
    eps_set: tuple[float, ...] = (1.0, 0.1, 0.01)
    samples: int = 10_000
    nd_floor: float = 1e-3
    cert_times: int = 17
    seed: int = 0
    threads: int = 1
    output_dir: str = "out"
    blowup_ceiling: float = 1e9
    check_grid: int = 201

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("top level must be a key-value mapping")
        top_allowed = {
            "m", "T", "coefficients", "nu", "initial", "K", "G", "dt",
            "snapshot_interval", "diagnostics", "constants", "certificate",
            "seed", "threads", "output_dir", "blowup_ceiling", "check_grid",
        }
        _reject_unknown(data, top_allowed, "")
        for required in ("m", "T", "coefficients", "initial"):
            if required not in data:
                raise ConfigError("missing required field", field=required)

        m = _as_int(data["m"], "m")
        if m < 2:
            raise ConfigError(f"invariant violation: order m >= 2 (got {m})", field="m")
        horizon = _as_float(data["T"], "T")
        if not horizon > 0:
            raise ConfigError("invariant violation: horizon T > 0", field="T")
        coefficients = _as_expr_list(data["coefficients"], m, "t", "coefficients")
        initial = _as_expr_list(data["initial"], m, "x", "initial")
        nu = _as_int(data.get("nu", 0), "nu")
        if nu < 0:
            raise ConfigError("invariant violation: nu >= 0", field="nu")
        modes = _as_int(data.get("K", 64), "K")
        if modes < 8:
            raise ConfigError(f"invariant violation: modes K >= 8 (got {modes})", field="K")
        grid = _as_int(data["G"], "G") if "G" in data else default_grid_size(modes)
        if grid < 4 * modes or grid != _next_power_of_two(grid):
            raise ConfigError(
                f"invariant violation: G must be a power of two with G >= 4K = {4 * modes} "
                f"(got {grid})",
                field="G",
            )
        dt = _as_float(data.get("dt", 1e-3), "dt")
        if not 0 < dt < horizon:
            raise ConfigError("invariant violation: 0 < dt < T", field="dt")
        if "snapshot_interval" in data:
            snapshot_interval = _as_float(data["snapshot_interval"], "snapshot_interval")
            if not 0 < snapshot_interval <= horizon:
                raise ConfigError(
                    "invariant violation: 0 < snapshot_interval <= T", field="snapshot_interval"
                )
        else:
            snapshot_interval = horizon / 100.0

        diag = data.get("diagnostics", {})
        if not isinstance(diag, Mapping):
            raise ConfigError("expected a mapping", field="diagnostics")
        _reject_unknown(diag, {"energies", "radius", "symmetrizer_certificate"}, "diagnostics")
        energies = _as_bool(diag.get("energies", True), "diagnostics.energies")
        radius_on = _as_bool(diag.get("radius", True), "diagnostics.radius")
        cert_on = _as_bool(
            diag.get("symmetrizer_certificate", False), "diagnostics.symmetrizer_certificate"
        )

        cons = data.get("constants", {})
        if not isinstance(cons, Mapping):
            raise ConfigError("expected a mapping", field="constants")
        cons_allowed = {"C0", "N", "C", "c", "r0", "J_max", "eta", "s", "k_gevrey", "lambda_k"}
        _reject_unknown(cons, cons_allowed, "constants")
        c0 = None if cons.get("C0") is None else _as_float(cons["C0"], "constants.C0")
        if c0 is not None and c0 < 1.0:
            raise ConfigError("invariant violation: C0 >= 1", field="constants.C0")
        n_exp = None if cons.get("N") is None else _as_int(cons["N"], "constants.N")
        if n_exp is not None and n_exp < 0:
            raise ConfigError("invariant violation: N >= 0", field="constants.N")
        c_const = None if cons.get("C") is None else _as_float(cons["C"], "constants.C")
        if c_const is not None and c_const <= 0:
            raise ConfigError("invariant violation: C > 0", field="constants.C")
        disc_c = _as_float(cons.get("c", 0.01), "constants.c")
        if disc_c < 0:
            raise ConfigError("invariant violation: c >= 0", field="constants.c")
        r0 = _as_float(cons.get("r0", 0.25), "constants.r0")
        if r0 <= 0:
            raise ConfigError("invariant violation: r0 > 0", field="constants.r0")
        j_max = _as_int(cons.get("J_max", 24), "constants.J_max")
        if j_max < 1:
            raise ConfigError("invariant violation: J_max >= 1", field="constants.J_max")
        eta = _as_float(cons.get("eta", 1.0), "constants.eta")
        if not 0 < eta <= 1:
            raise ConfigError("invariant violation: 0 < eta <= 1", field="constants.eta")
        s_order = _as_float(cons.get("s", 1.0), "constants.s")
        if s_order <= 0:
            raise ConfigError("invariant violation: s > 0", field="constants.s")
        k_gevrey = (
            None if cons.get("k_gevrey") is None else _as_int(cons["k_gevrey"], "constants.k_gevrey")
        )
        if k_gevrey is not None and k_gevrey < 1:
            raise ConfigError("invariant violation: k_gevrey >= 1", field="constants.k_gevrey")
        lambda_k = _as_float(cons.get("lambda_k", 1.0), "constants.lambda_k")
        if lambda_k <= 0:
            raise ConfigError("invariant violation: lambda_k > 0", field="constants.lambda_k")

        cert = data.get("certificate", {})
        if not isinstance(cert, Mapping):
            raise ConfigError("expected a mapping", field="certificate")
        cert_allowed = {"eps_set", "samples", "nd_floor", "times"}
        _reject_unknown(cert, cert_allowed, "certificate")
        eps_raw = cert.get("eps_set", [1.0, 0.1, 0.01])
        if not isinstance(eps_raw, (list, tuple)) or not eps_raw:
            raise ConfigError("expected a nonempty list", field="certificate.eps_set")
        eps_set = tuple(
            _as_float(e, f"certificate.eps_set[{i}]") for i, e in enumerate(eps_raw)
        )
        if any(not 0 < e <= 1 for e in eps_set):
            raise ConfigError(
                "invariant violation: every eps in (0, 1]", field="certificate.eps_set"
            )
        samples = _as_int(cert.get("samples", 10_000), "certificate.samples")
        if samples < 1:
            raise ConfigError("invariant violation: samples >= 1", field="certificate.samples")
        nd_floor = _as_float(cert.get("nd_floor", 1e-3), "certificate.nd_floor")
        if nd_floor < 0:
            raise ConfigError("invariant violation: nd_floor >= 0", field="certificate.nd_floor")
        cert_times = _as_int(cert.get("times", 17), "certificate.times")
        if cert_times < 1:
            raise ConfigError("invariant violation: times >= 1", field="certificate.times")

        seed = _as_int(data.get("seed", 0), "seed")
        threads = _as_int(data.get("threads", 1), "threads")
        if threads < 1:
            raise ConfigError("invariant violation: threads >= 1", field="threads")
        output_dir = data.get("output_dir", "out")
        if not isinstance(output_dir, str) or not output_dir:
            raise ConfigError("expected a nonempty string", field="output_dir")
        ceiling = _as_float(data.get("blowup_ceiling", 1e9), "blowup_ceiling")
        if ceiling <= 0:
            raise ConfigError("invariant violation: blowup_ceiling > 0", field="blowup_ceiling")
        check_grid = _as_int(data.get("check_grid", 201), "check_grid")
        if check_grid < 3:
            raise ConfigError("invariant violation: check_grid >= 3", field="check_grid")

        return cls(
            order=m,
            horizon=horizon,
            coefficients=coefficients,
            initial=initial,
            nonlinearity=nu,
            modes=modes,
            grid=grid,
            dt=dt,
            snapshot_interval=snapshot_interval,
            energies=energies,
            radius=radius_on,
            symmetrizer_certificate=cert_on,
            c0_override=c0,
            n_override=n_exp,
            c_override=c_const,
            disc_threshold=disc_c,
            r0=r0,
            j_max=j_max,
            eta=eta,
            s=s_order,
            k_gevrey=k_gevrey,
            lambda_k=lambda_k,
            eps_set=eps_set,
            samples=samples,
            nd_floor=nd_floor,
            cert_times=cert_times,
            seed=seed,
            threads=threads,
            output_dir=output_dir,
            blowup_ceiling=ceiling,
            check_grid=check_grid,
        )

    def problem(self) -> CoefficientSpec:
        return CoefficientSpec.from_strings(
            self.order, self.horizon, self.coefficients, self.nonlinearity, self.initial
        )

    def with_overrides(
        self,
        seed: int | None = None,
        threads: int | None = None,
        output_dir: str | None = None,
    ) -> "RunConfig":
        out = self
        if seed is not None:
            out = replace(out, seed=seed)
        if threads is not None:
            if threads < 1:
                raise ConfigError("invariant violation: threads >= 1", field="threads")
            out = replace(out, threads=threads)
        if output_dir is not None:
            out = replace(out, output_dir=output_dir)
        return out

    def semantic_dict(self) -> dict:
        """Every field that shapes output bytes; threads/output_dir excluded."""
        return {
            "m": self.order,
            "T": self.horizon,
            "coefficients": list(self.coefficients),
            "nu": self.nonlinearity,
            "initial": list(self.initial),
            "K": self.modes,
            "G": self.grid,
            "dt": self.dt,
            "snapshot_interval": self.snapshot_interval,
            "diagnostics": {
                "energies": self.energies,
                "radius": self.radius,
                "symmetrizer_certificate": self.symmetrizer_certificate,
            },
            "constants": {
                "C0": self.c0_override,
                "N": self.n_override,
                "C": self.c_override,
                "c": self.disc_threshold,
                "r0": self.r0,
                "J_max": self.j_max,
                "eta": self.eta,
                "s": self.s,
                "k_gevrey": self.k_gevrey,
                "lambda_k": self.lambda_k,
            },
            "certificate": {
                "eps_set": list(self.eps_set),
                "samples": self.samples,
                "nd_floor": self.nd_floor,
                "times": self.cert_times,
            },
            "seed": self.seed,
            "blowup_ceiling": self.blowup_ceiling,
            "check_grid": self.check_grid,
        }

    def sha256(self) -> str:
        canonical = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def to_meta(self) -> dict:
        meta = self.semantic_dict()
        meta["config_sha256"] = self.sha256()
        return meta


def load_config(path: str) -> RunConfig:
    """Read and validate a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not parseable as YAML: {exc}") from exc
    if raw is None:
        raise ConfigError("empty config file")
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a key-value mapping")
    return RunConfig.from_dict(raw)
