"""Config schema validation and CLI end-to-end runs.

The CLI contract under test: exit 0 on success, 1 on invalid input or a
failed verdict, 2 on blow-up, 3 on a stability veto; structured one-line
JSON on stderr for errors; every output file stamped with the semantic
config hash, which ignores threads and output_dir.  Files are written only
when a command returns an exit code or a guard aborts the run (exit 2 or 3);
each path below pins the exact set of files it writes.
"""

import ast
import dataclasses
import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from fresh_probe import run_fresh

from weakhyp import ConfigError, RunConfig, cli, config, load_config
from weakhyp.cli import main
from weakhyp.energy import WeightParams, build_energy_ledger, default_c0, master_estimate_check
from weakhyp.equation import CoefficientSpec
from weakhyp.spectral import Trajectory, assemble_state, simulate


def base() -> dict:
    return {
        "m": 2,
        "T": 1.0,
        "coefficients": ["0", "-1"],
        "initial": ["cos(x)", "0"],
    }


# -- schema -----------------------------------------------------------------


def test_defaults():
    cfg = RunConfig.from_dict(base())
    assert cfg.order == 2
    assert cfg.nonlinearity == 0
    assert cfg.modes == 64
    assert cfg.dt == 1e-3
    assert cfg.snapshot_interval == pytest.approx(0.01)  # T / 100
    assert cfg.eps_set == (1.0, 0.1, 0.01)
    assert cfg.j_max == 24
    assert cfg.threads == 1
    assert cfg.output_dir == "out"


def test_grid_default_rounds_up_to_power_of_two():
    # K = 100 samples the data on 512 points, the smallest power of two >= 4K:
    # there cos(512 x) is 1 at every sample and lands on mode 0, while cos(256 x)
    # sits at the Nyquist mode, above K; 256 points would put both on mode 0
    # and 1024 points neither
    initial = ["cos(512*x) + cos(256*x)", "0"]
    cfg = RunConfig.from_dict({**base(), "K": 100, "initial": initial})
    assert cfg.modes == 100
    u = assemble_state(cfg.problem().initial, cfg.modes)[:, 0]
    assert u[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(u[1:]).max() < 1e-14


def test_snapshot_interval_scales_with_horizon():
    data = {**base(), "T": 2.0, "coefficients": ["0", "-1"]}
    assert RunConfig.from_dict(data).snapshot_interval == pytest.approx(0.02)


def test_numeric_coefficient_entries_are_stringified():
    cfg = RunConfig.from_dict({**base(), "coefficients": ["0", -1]})
    assert cfg.coefficients == ("0", "-1")


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"bogus": 1}, "bogus"),
        ({"diagnostics": {"foo": True}}, "diagnostics.foo"),
        ({"constants": {"Q": 1}}, "constants.Q"),
        ({"certificate": {"width": 2}}, "certificate.width"),
        # keys of the schema once, which nothing read
        ({"diagnostics": {"super_energies": True}}, "diagnostics.super_energies"),
        ({"diagnostics": {"master_check": True}}, "diagnostics.master_check"),
        ({"constants": {"k_gevrey": 4}}, "constants.k_gevrey"),
        ({"constants": {"lambda_k": 1.0}}, "constants.lambda_k"),
        # keys of the schema once, which took one value everywhere
        ({"G": 256}, "G"),
        ({"constants": {"eta": 1.0}}, "constants.eta"),
        ({"diagnostics": {"energies": True}}, "diagnostics.energies"),
        ({"diagnostics": {"radius": True}}, "diagnostics.radius"),
    ],
)
def test_unknown_keys_rejected_with_path(patch, field):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({**base(), **patch})
    assert err.value.field == field
    assert "unknown key" in str(err.value)


def test_keys_that_are_not_strings_are_unknown_keys():
    # YAML reads `1: x` as an int key; it must not break the sort of the unknown names
    with pytest.raises(ConfigError, match="unknown key") as err:
        RunConfig.from_dict({**base(), 1: 2, "zz": 3})
    assert err.value.field == "1"
    with pytest.raises(ConfigError, match="unknown key") as err:
        RunConfig.from_dict({**base(), "constants": {2.5: 1}})
    assert err.value.field == "constants.2.5"


def test_missing_required_field():
    data = base()
    del data["coefficients"]
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(data)
    assert err.value.field == "coefficients"


def test_bool_is_not_an_integer():
    with pytest.raises(ConfigError, match="expected an integer"):
        RunConfig.from_dict({**base(), "K": True})


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"m": 1}, "m"),
        ({"T": 0.0}, "T"),
        ({"nu": -1}, "nu"),
        ({"K": 4}, "K"),
        ({"certificate": {"eps_set": [0.5, 0.1, 0.5]}}, "certificate.eps_set"),
        ({"dt": 1.0}, "dt"),
        ({"snapshot_interval": 0.0}, "snapshot_interval"),
        ({"constants": {"C0": 0.5}}, "constants.C0"),
        ({"constants": {"s": 0.0}}, "constants.s"),
        ({"constants": {"r0": 0.0}}, "constants.r0"),
        ({"certificate": {"eps_set": [1.5]}}, "certificate.eps_set"),
        ({"certificate": {"samples": 0}}, "certificate.samples"),
        ({"threads": 0}, "threads"),
        ({"blowup_ceiling": 0.0}, "blowup_ceiling"),
        ({"check_grid": 2}, "check_grid"),
        ({"seed": -1}, "seed"),
        ({"constants": {"N": 30}}, "constants.J_max"),
        ({"constants": {"J_max": 171}}, "constants.J_max"),
    ],
)
def test_invariant_violations_name_the_field(patch, field):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({**base(), **patch})
    assert err.value.field == field
    assert "invariant violation" in str(err.value)


def test_conv_method_choices():
    # the integrator has one convolution path, so the former key is unknown
    for value in ("direct", "fft"):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({**base(), "conv_method": value})
        assert err.value.field == "conv_method"
        assert "unknown key" in str(err.value)


def test_coefficient_expression_error_points_at_entry():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({**base(), "coefficients": ["0", "x"]})
    assert err.value.field == "coefficients[1]"
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({**base(), "initial": ["cos(", "0"]})
    assert err.value.field == "initial[0]"


def test_expression_count_must_match_order():
    with pytest.raises(ConfigError, match="exactly 2"):
        RunConfig.from_dict({**base(), "coefficients": ["0", "-1", "0"]})


def test_diagnostics_must_be_boolean():
    with pytest.raises(ConfigError, match="true/false"):
        RunConfig.from_dict({**base(), "diagnostics": {"symmetrizer_certificate": 1}})


def test_with_overrides():
    cfg = RunConfig.from_dict(base())
    out = cfg.with_overrides(seed=5, threads=4, output_dir="elsewhere")
    assert (out.seed, out.threads, out.output_dir) == (5, 4, "elsewhere")
    with pytest.raises(ConfigError):
        cfg.with_overrides(threads=0)


def test_hash_ignores_threads_and_output_dir():
    cfg = RunConfig.from_dict(base())
    moved = cfg.with_overrides(threads=8, output_dir="elsewhere")
    assert cfg.sha256() == moved.sha256()
    assert cfg.to_meta() == moved.to_meta()
    reseeded = cfg.with_overrides(seed=1)
    assert cfg.sha256() != reseeded.sha256()


def test_meta_excludes_scheduling_fields():
    meta = RunConfig.from_dict(base()).to_meta()
    assert "threads" not in meta
    assert "output_dir" not in meta
    assert meta["config_sha256"] == RunConfig.from_dict(base()).sha256()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("wave.yaml", "5c96a3f707174d5483bbf2285eb6f86665e759550d2c23035f153103e4ddcd36"),
        ("weakhyp_nu2.yaml", "68d6228fbb4e467a36a92a478044ee316b25d896a6928a1325502565185db377"),
    ],
)
def test_shipped_config_hashes_are_pinned(name, digest):
    # every output file carries this hash; a schema change that moves it
    # makes old and new runs of the same config look unrelated
    assert load_config(str(CONFIGS / name)).sha256() == digest


@pytest.mark.parametrize("name", ["wave.yaml", "weakhyp_nu2.yaml"])
def test_config_hash_is_the_sha256_of_the_canonical_text(name):
    # the hash comes from the interpreter's own SHA-256 module, not hashlib's
    cfg = load_config(str(CONFIGS / name))
    canonical = json.dumps(cfg.semantic_dict(), sort_keys=True, separators=(",", ":"))
    assert cfg.sha256() == hashlib.sha256(canonical.encode()).hexdigest()


def number(lo, hi, exclude_min=False, exclude_max=False):
    """Floats between lo and hi, or the integers there, as YAML may give either."""
    first, last = math.ceil(lo) + exclude_min, math.floor(hi) - exclude_max
    ints = st.integers(first, last) if first <= last else st.nothing()
    return st.floats(lo, hi, exclude_min=exclude_min, exclude_max=exclude_max) | ints


def expressions(var, count):
    entries = st.sampled_from(["0", "-1", f"-{var}^2", f"sin({var})", f"0.5*cos(2*{var})", 3, -1.5])
    return st.lists(entries, min_size=count, max_size=count)


# a strategy of valid values for each schema row, given the values drawn above it
ROW_VALUES = {
    "m": lambda d: st.integers(2, 5),
    "T": lambda d: number(0.01, 1e3),
    "coefficients": lambda d: expressions("t", d["m"]),
    "initial": lambda d: expressions("x", d["m"]),
    "nu": lambda d: st.integers(0, 6),
    "K": lambda d: st.integers(8, 5000),
    "dt": lambda d: number(0.0, d["T"], exclude_min=True, exclude_max=True),
    "snapshot_interval": lambda d: number(0.0, d["T"], exclude_min=True),
    "diagnostics.symmetrizer_certificate": lambda d: st.booleans(),
    "constants.C0": lambda d: st.none() | number(1.0, 1e6),
    "constants.N": lambda d: st.none() | st.integers(0, 24),
    "constants.C": lambda d: st.none() | number(0.0, 1e6, exclude_min=True),
    "constants.c": lambda d: number(0.0, 1.0),
    "constants.r0": lambda d: number(0.0, 10.0, exclude_min=True),
    "constants.J_max": lambda d: st.integers(max(1, d.get("constants.N") or 0), 170),
    "constants.s": lambda d: number(0.0, 10.0, exclude_min=True),
    "certificate.eps_set": lambda d: st.lists(
        number(0.0, 1.0, exclude_min=True), min_size=1, unique_by=float
    ),
    "certificate.samples": lambda d: st.integers(1, 10**6),
    "certificate.nd_floor": lambda d: number(0.0, 1.0),
    "certificate.times": lambda d: st.integers(1, 1000),
    "seed": lambda d: st.integers(0, 2**40),
    "threads": lambda d: st.integers(1, 64),
    "output_dir": lambda d: st.text(min_size=1, max_size=8),
    "blowup_ceiling": lambda d: number(0.0, 1e300, exclude_min=True),
    "check_grid": lambda d: st.integers(3, 10**5),
}
ALWAYS_GIVEN = {"m", "T", "coefficients", "initial", "K"}  # required, or read by other rows


def test_every_schema_row_has_a_value_strategy():
    assert list(ROW_VALUES) == [key.path for key in config._SCHEMA]


def unread_fields(fields: set, sources: list) -> set:
    """The names in ``fields`` that no source reads as an attribute (``x.name``)."""
    read = {
        node.attr
        for text in sources
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return fields - read


def test_unread_field_guard_catches_an_unread_field():
    # a field that is only declared and assigned is not read
    source = """\
class Cfg:
    used: int
    idle: int

def run(cfg):
    cfg.idle = 1
    return cfg.used
"""
    assert unread_fields({"used", "idle"}, [source]) == {"idle"}


def test_every_config_field_is_read():
    # a config key that nothing reads should be deleted
    package = Path(config.__file__).parent
    sources = [path.read_text() for path in package.glob("*.py")]
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    assert unread_fields(fields, sources) == set()


# public names that no package code reaches, each kept for a reason outside the package
UNREACHED_BY_DESIGN = {
    "convolution_power",  # the ring forcing's test oracle, which perfbench/tracing.py rebinds
    "sample_unit_vectors",  # the documented draw that the sampled-audit tests compare with
    "phi_weight",  # criterion 6 integrates it against rho_weight
    "energy_inequality_check",  # criterion 8, and ROADMAP item 3
    "fit_moment_radius",  # ROADMAP item 7
    "to_source",  # the parser's round-trip tests
}


def unreached_names(sources: list) -> set:
    """The public module-level functions and classes of ``sources`` that no
    top-level statement other than their own definition loads, as a name or
    as an attribute (``x.name``)."""
    statements = []
    for text in sources:
        for stmt in ast.parse(text).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            loads = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            }
            statements.append((own, loads - {own}))
    public = {own for own, _ in statements if own and not own.startswith("_")}
    return public - set().union(*(loads for _, loads in statements))


def test_unreached_name_guard_catches_an_unreached_function():
    # recursion, __all__ and private names do not count; a call or a method does
    source = """\
__all__ = ["idle", "used", "Box"]

def idle(n):
    return idle(n - 1) if n else 0

def used():
    return 1

class Box:
    pass

def _run(box):
    return used() + box.Box
"""
    assert unreached_names([source]) == {"idle"}


def test_every_public_function_is_reached():
    # a public function or class that no package code reaches should be deleted;
    # the exemptions fail this test too once package code reaches them
    package = Path(config.__file__).parent
    sources = [path.read_text() for path in package.glob("*.py") if path.name != "__init__.py"]
    assert unreached_names(sources) == UNREACHED_BY_DESIGN


def private_imports(sources: dict) -> set:
    """(module, name) for each private name that a module of ``sources`` imports
    from a package module, by a relative or a ``weakhyp`` import."""
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "weakhyp"
            ):
                found |= {(module, alias.name) for alias in node.names if alias.name.startswith("_")}
    return found


def test_private_import_guard_catches_a_private_import():
    source = """\
from __future__ import annotations
from os import _exit
from .spectral import _ik_powers, simulate
from weakhyp.energy import _weights
from . import spectral
"""
    assert private_imports({"cli": source}) == {("cli", "_ik_powers"), ("cli", "_weights")}


def test_no_module_imports_a_private_name_of_another():
    # each concept has one home: V, for one, is defined only in spectral
    package = Path(config.__file__).parent
    sources = {path.stem: path.read_text() for path in package.glob("*.py")}
    assert private_imports(sources) == set()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_schema_round_trip_through_run_meta(data):
    drawn, raw = {}, {}
    for path, values in ROW_VALUES.items():
        if path in ALWAYS_GIVEN or data.draw(st.booleans()):
            drawn[path] = data.draw(values(drawn), label=path)
            section, _, name = path.rpartition(".")
            (raw.setdefault(section, {}) if section else raw)[name] = drawn[path]
    cfg = RunConfig.from_dict(raw)
    # run_meta.json, as the CLI writes it, reads back as the same config
    meta = json.loads(cli._json_text(cfg.to_meta()))
    assert meta.pop("config_sha256") == cfg.sha256()
    back = RunConfig.from_dict(meta)
    assert back.with_overrides(threads=cfg.threads, output_dir=cfg.output_dir) == cfg
    assert back.sha256() == cfg.sha256()


@pytest.mark.parametrize(
    "path",
    [
        "T", "dt", "snapshot_interval", "constants.C0", "constants.C", "constants.c",
        "constants.r0", "constants.s",
        "certificate.nd_floor", "blowup_ceiling",
    ],
)
def test_nan_is_an_invariant_violation(path):
    section, _, name = path.rpartition(".")
    patch = {section: {name: math.nan}} if section else {name: math.nan}
    with pytest.raises(ConfigError, match="invariant violation") as err:
        RunConfig.from_dict({**base(), **patch})
    assert err.value.field == path


def test_problem_binding():
    spec = RunConfig.from_dict({**base(), "nu": 2}).problem()
    assert spec.order == 2
    assert spec.nonlinearity == 2
    assert spec.coefficients_at(0.0) == pytest.approx([0.0, -1.0])


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("m: 2\nT: 1.0\ncoefficients: ['0', '-1']\ninitial: ['cos(x)', '0']\n")
    assert load_config(str(path)) == RunConfig.from_dict(base())


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty config file"),
        ("- 1\n- 2\n", "top level must be"),
        ("m: [unclosed\n", "not parseable as YAML"),
        # PyYAML keeps the last of two equal keys, which would silently drop the first
        ("m: 2\nK: 16\nK: 32\n", "duplicate key 'K' on line 3"),
        ("constants:\n  r0: 0.1\nconstants:\n  r0: 0.3\n", "duplicate key 'constants' on line 3"),
        ("constants:\n  r0: 0.1\n  C: 2.0\n  r0: 0.3\n", "duplicate key 'r0' on line 4"),
    ],
)
def test_load_config_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as err:
        load_config(str(path))
    assert err.value.field is None


def test_loader_lets_a_key_override_a_merged_one():
    # a merge key brings in the keys of an alias; overriding one is not a repeat
    text = "a: &x {b: 1, c: 2}\nd:\n  <<: *x\n  b: 3\n"
    assert yaml.load(text, Loader=config._Loader) == {"a": {"b": 1, "c": 2}, "d": {"b": 3, "c": 2}}


# -- CLI --------------------------------------------------------------------


WAVE_YAML = """\
m: 2
T: 1.0
coefficients: ["0", "-1"]
initial: ["cos(x)", "0"]
K: 8
dt: 0.01
snapshot_interval: 0.25
constants:
  J_max: 8
certificate:
  samples: 200
  times: 3
diagnostics:
  symmetrizer_certificate: true
"""


def write_config(tmp_path: Path, text: str = WAVE_YAML, name: str = "run.yaml") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def written(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir())


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1].split(","), [line.split(",") for line in lines[2:]]


def test_cli_check_wave(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--output", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["satisfied"] is True
    assert report["diam"]["satisfied"] is True
    assert report["discriminant"]["holds"] is True
    assert report["discriminant"]["delta_min"] == pytest.approx(4.0)
    assert written(out) == ["report.json", "run_meta.json"]


def test_cli_check_double_root_fails(tmp_path):
    text = WAVE_YAML.replace('coefficients: ["0", "-1"]', 'coefficients: ["-2", "1"]')
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--output", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["satisfied"] is False
    assert report["diam"]["M_sup"] == "inf"  # sanitized for JSON
    assert report["discriminant"]["holds"] is False
    assert written(out) == ["report.json", "run_meta.json"]


def test_cli_check_elliptic_reports_error(tmp_path, capsys):
    text = WAVE_YAML.replace('coefficients: ["0", "-1"]', 'coefficients: ["0", "1"]')
    cfg = write_config(tmp_path, text)
    assert main(["check", "--config", cfg, "--output", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NonHyperbolicError"


def test_cli_simulate_spectrum_values(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    sha = load_config(cfg).sha256()
    first, header, rows = read_csv(out / "spectrum.csv")
    assert first == f"# config_sha256={sha}"
    assert header == ["t", "k", "re_V0", "im_V0", "re_V1", "im_V1"]
    # initial slice: u = cos x so V0 = ik u_hat is 0.5i at k = 1, u_t = 0
    row = next(r for r in rows if r[0] == "0" and r[1] == "1")
    values = [float(cell) for cell in row[2:]]
    assert values == pytest.approx([0.0, 0.5, 0.0, 0.0], abs=1e-14)
    report = json.loads((out / "report.json").read_text())
    assert report["completed"] is True
    assert report["final_sup_v"] == pytest.approx(0.5, rel=1e-3)
    assert "final_reality_defect" not in report  # zero by construction, so not reported
    assert written(out) == ["report.json", "run_meta.json", "spectrum.csv"]


def full_layout_v(traj) -> np.ndarray:
    """Companion vectors of modes -K..K: rows -K..-1 are the conjugates of rows K..1."""
    v = traj.v_series()
    return np.concatenate([v[:, :0:-1].conj(), v], axis=1)


def reference_spectrum_bytes(times, v, sha: str) -> bytes:
    """spectrum.csv of the companion vectors v (S, 2K+1, m), formatted cell by cell with %.17g."""
    m = v.shape[2]
    K = (v.shape[1] - 1) // 2
    header = ["t", "k"] + [f"{p}_V{c}" for c in range(m) for p in ("re", "im")]
    lines = [f"# config_sha256={sha}", ",".join(header)]
    for i, t in enumerate(times):
        for idx, k in enumerate(range(-K, K + 1)):
            cells = ["%.17g" % float(t), str(int(k))]
            for comp in range(m):
                z = v[i, idx, comp]
                cells += ["%.17g" % float(z.real), "%.17g" % float(z.imag)]
            lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in V
def test_spectrum_emitter_matches_cellwise_formatting(tmp_path):
    rng = np.random.default_rng(11)
    K, m, S = 5, 3, 4
    chains = rng.standard_normal((S, K + 1, m)) * 10.0 ** rng.integers(-320, 300, (S, K + 1, m))
    chains = chains + 1j * rng.standard_normal((S, K + 1, m))
    # non-finite, signed-zero and subnormal cells reach the rows -K..-1 as their conjugates
    chains[0, K] = [np.nan, np.inf, -0.0]
    chains[1, 1] = [-np.inf, 0.0, 1e-310]
    chains[2, 0] = [-0.0, complex(0.0, -0.0), 5e-324]
    traj = Trajectory(
        order=m, K=K, dt=0.1, nu=0, times=np.array([0.0, 1 / 3, 0.7, 1.0]),
        chains=chains, forcings=np.zeros((S, K + 1), dtype=complex), completed=True,
    )
    cli._write_files(str(tmp_path), {"spectrum.csv": cli._spectrum_file(traj)}, "abc")
    want = reference_spectrum_bytes(traj.times, full_layout_v(traj), "abc")
    assert (tmp_path / "spectrum.csv").read_bytes() == want


@pytest.mark.parametrize(
    "m, coeffs, initial",
    [
        (2, ["sin(t)", "-1 - t^2"], ["0.3/(1.25 - cos(x)) + 0.1*sin(2*x)", "0"]),
        (3, ["0", "-1 - t^2", "0.3*t"], ["0.2/(1.25 - cos(x))", "0.1*cos(3*x)", "0.05*sin(x)"]),
    ],
)
def test_spectrum_emitter_on_mirrored_runs(tmp_path, m, coeffs, initial):
    spec = CoefficientSpec.from_strings(m, 0.1, coeffs, 2, initial)
    traj = simulate(spec, K=16, dt=1e-3, snapshot_interval=0.05)
    cli._write_files(str(tmp_path), {"spectrum.csv": cli._spectrum_file(traj)}, "abc")
    want = reference_spectrum_bytes(traj.times, full_layout_v(traj), "abc")
    assert (tmp_path / "spectrum.csv").read_bytes() == want


SIGN = 1 << 63
SPECIAL_BITS = [
    0, SIGN,  # +-0
    1, (1 << 52) - 1, SIGN | 1,  # subnormals
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF,  # NaN payloads
    0x3FF0000000000000, 0x7FEFFFFFFFFFFFFF,  # 1.0, the largest finite
]
float_bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


def draw_bits(data, n: int) -> np.ndarray:
    return np.array(data.draw(st.lists(float_bits, min_size=n, max_size=n)), dtype=np.uint64)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spectrum_mirror_sign_toggle_over_raw_bits(data):
    K = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(2, 3))
    S = data.draw(st.integers(1, 2))
    # rows 0..K of V as raw bits, which the writer reads in place of the companion vectors
    v = draw_bits(data, S * (K + 1) * m * 2).view(complex).reshape(S, K + 1, m)
    traj = Trajectory(
        order=m, K=K, dt=0.1, nu=0, times=np.linspace(0.0, 1.0, S), chains=v,
        forcings=np.zeros((S, K + 1), dtype=complex), completed=True,
    )
    with mock.patch.object(cli, "companion_vectors", lambda chain: chain):
        files = {"spectrum.csv": cli._spectrum_file(traj)}
        with tempfile.TemporaryDirectory() as out:
            cli._write_files(out, files, "abc")
            got = (Path(out) / "spectrum.csv").read_bytes()
    full = np.concatenate([v[:, :0:-1].conj(), v], axis=1)
    assert got == reference_spectrum_bytes(traj.times, full, "abc")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.lists(st.floats(), max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example({})
@example([])
@example({"é": [], "ß": {}, "a": [1.5, -0.0, 5e-324], "b": [1.0, 2, True, None, "x"]})
@example({"x": [1.0, math.nan], "y": math.inf, "z": [-math.inf]})
def test_json_writer_matches_json_dumps(obj):
    # json.dumps of the sanitized value: the same text for finite values,
    # and "nan", "inf", "-inf" as strings where json.dumps writes NaN, Infinity
    safe = elementwise_sanitize(obj)
    assert cli._json_text(obj) == json.dumps(safe, sort_keys=True, indent=2)
    if safe == obj:  # no non-finite float anywhere
        assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def elementwise_sanitize(obj):
    """A JSON-safe copy with every value converted one by one: the writer's oracle."""
    if isinstance(obj, dict):
        return {str(k): elementwise_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [elementwise_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [elementwise_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def test_json_sanitizer_fast_path_keeps_bytes():
    rng = np.random.default_rng(13)
    finite = rng.standard_normal(500) * 10.0 ** rng.integers(-320, 300, 500)
    finite[:4] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308]
    special = finite.copy()
    special[[3, 50, 99]] = [np.nan, np.inf, -np.inf]
    payload = {
        "finite": finite,
        "special": special,
        "table": finite[:12].reshape(3, 4),
        "table_special": special[:100].reshape(10, 10),
        "float32": rng.standard_normal(20).astype(np.float32),
        "ints": np.arange(5),
        "flags": np.array([True, False]),
        "empty": np.zeros(0),
        "nested": [{"x": np.float64(-0.0), "y": np.inf, "z": np.int64(3)}, (1.5, np.bool_(True))],
    }
    want = json.dumps(elementwise_sanitize(payload), sort_keys=True, indent=2)
    assert cli._json_text(payload) == want


def test_cli_analyze_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 0
    assert written(out) == [
        "certificate.json", "energies.csv", "radius.csv",
        "report.json", "run_meta.json", "spectrum.csv",
    ]

    _, header, rows = read_csv(out / "energies.csv")
    assert header == ["t", "E", "E_1", "E_2", "E_4", "E_8", "F", "G", "L", "r", "master_ratio"]
    # E(0) = e^2: rho(0, +-1) = 2 and |V| = 1/2 in both components' modes
    assert float(rows[0][1]) == pytest.approx(math.e**2, rel=1e-9)

    # cos x has no modes beyond |k| = 1: every radius fit must be the nan row
    _, header, rows = read_csv(out / "radius.csv")
    assert header == ["t", "r_hat", "residual", "band_lo", "band_hi", "s"]
    assert all(r[1] == "nan" and r[3] == "0" for r in rows)

    report = json.loads((out / "report.json").read_text())
    assert report["ledger"]["continuation"]["passed"] is True
    assert report["radius_summary"] == {
        "fitted_snapshots": 0, "min_r_hat": None, "final_r_hat": None,
    }

    meta = json.loads((out / "run_meta.json").read_text())
    assert "threads" not in meta and "output_dir" not in meta
    assert meta["config_sha256"] == load_config(cfg).sha256()

    cert = json.loads((out / "certificate.json").read_text())
    assert cert["aggregate"]["pass"] is True
    assert cert["aggregate"]["c_nd"] == pytest.approx(1.0)
    assert len(cert["per_time"]) == 3


def test_cli_analyze_fits_n_on_the_run_itself_when_nu_is_zero(tmp_path):
    # nu = 0: the run is its own linear run, so N is what the master estimate
    # fits at the trial N = m+1 on it, and a ledger built at that N is the
    # ledger block of the report, byte for byte
    path = str(CONFIGS / "wave.yaml")
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--output", str(out)]) == 0
    text = (out / "report.json").read_text()
    cfg = load_config(path)
    assert cfg.nonlinearity == 0 and cfg.n_override is None and cfg.c0_override is None
    problem = cfg.problem()
    traj = cli._simulate(cfg)
    c0 = default_c0(problem)
    trial = WeightParams(c0=c0, horizon=cfg.horizon, loss_exponent=cfg.order + 1)
    n_exponent = master_estimate_check(traj, trial).fitted_n
    assert json.loads(text)["ledger"]["N"] == n_exponent == 1
    ledger = build_energy_ledger(
        traj, problem, c0=c0, n_exponent=n_exponent, j_max=cfg.j_max, r0=cfg.r0
    )
    assert '\n  "ledger": ' + cli._json_text(ledger.to_dict(), "  ") + ",\n" in text


def test_cli_analyze_fits_n_on_the_calibration_member_at_the_target_c(tmp_path):
    # nu >= 1: N is fitted on the linear calibration member, against the
    # target C of constants.C; on the nonlinear run itself no N passes
    text = """\
m: 3
T: 1.0
coefficients: ["0", "-t^2", "0"]
nu: 3
initial: ["0.01*0.75/(1.25 - cos(x))", "0", "0"]
K: 32
dt: 0.002
snapshot_interval: 0.05
constants:
  C: 0.5
"""
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["analyze", "--config", path, "--output", str(out)]) == 0
    cfg = load_config(path)
    run = cli._simulate(cfg, calibrate=True)
    trial = WeightParams(c0=default_c0(cfg.problem()), horizon=1.0, loss_exponent=4)
    n_exponent = json.loads((out / "report.json").read_text())["ledger"]["N"]
    assert n_exponent == master_estimate_check(run.calibration, trial, 0.5).fitted_n == 6
    assert master_estimate_check(run, trial, 0.5).fitted_n is None
    assert master_estimate_check(run.calibration, trial).fitted_n < 6  # at the default target 10


def test_cli_analyze_fitted_n_above_j_max_is_a_config_error(tmp_path, capsys):
    # the calibration member fits N = 6 at the target C = 0.5, above J_max = 5;
    # the refusal names the key before the ledger is built
    text = """\
m: 3
T: 1.0
coefficients: ["0", "-t^2", "0"]
nu: 3
initial: ["0.1*cos(x)", "0", "0"]
K: 32
dt: 0.002
constants:
  C: 0.5
  J_max: 5
"""
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["field"] == "constants.J_max"
    assert err["message"] == (
        'config error at "constants.J_max": fitted loss exponent N=6 exceeds J_max=5'
    )
    assert not out.exists()


def test_cli_analyze_fallback_n_above_j_max_names_the_fallback(tmp_path, capsys):
    # the weakhyp_nu2 problem at K = 16: the sup ratio at k = 0 is e^(C0 T) > 1e-9,
    # so no N meets the target C and N is the m+1 fallback, 3 > J_max = 1; the
    # refusal must not call it fitted
    text = """\
m: 2
T: 1.0
coefficients: ["0", "-t^2"]
nu: 2
initial: ["0.01*0.75/(1.25 - cos(x))", "0"]
K: 16
dt: 0.01
snapshot_interval: 0.05
constants:
  J_max: 1
  C: 1.0e-9
"""
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["field"] == "constants.J_max"
    assert err["message"] == (
        'config error at "constants.J_max": fallback loss exponent N=3 exceeds J_max=1'
    )
    assert not out.exists()


def test_cli_analyze_thread_count_is_invisible_in_outputs(tmp_path):
    cfg = write_config(tmp_path)
    one, four = tmp_path / "one", tmp_path / "four"
    assert main(["analyze", "--config", cfg, "--threads", "1", "--output", str(one)]) == 0
    assert main(["analyze", "--config", cfg, "--threads", "4", "--output", str(four)]) == 0
    names = [p.name for p in sorted(one.iterdir())]
    assert names == [p.name for p in sorted(four.iterdir())]
    for name in names:
        assert (one / name).read_bytes() == (four / name).read_bytes(), name


def test_cli_symmetrizer(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["symmetrizer", "--config", cfg, "--output", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["aggregate"]["pass"] is True
    assert written(out) == ["certificate.json", "run_meta.json"]


def test_cli_symmetrizer_thread_count_is_invisible_in_outputs(tmp_path):
    text = WAVE_YAML.replace('coefficients: ["0", "-1"]', 'coefficients: ["0", "-t^2", "0"]')
    text = text.replace("m: 2", "m: 3").replace('initial: ["cos(x)", "0"]', 'initial: ["cos(x)", "0", "0"]')
    text = text.replace("times: 3", "times: 9")
    cfg = write_config(tmp_path, text)
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["symmetrizer", "--config", cfg, "--threads", "1", "--output", str(one)]) == 0
    assert main(["symmetrizer", "--config", cfg, "--threads", "2", "--output", str(two)]) == 0
    for name in ("certificate.json", "run_meta.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    cert = json.loads((one / "certificate.json").read_text())
    assert len(cert["per_time"]) == 9 and cert["aggregate"]["pass"] is True


def test_cli_blowup_exit_two(tmp_path, capsys):
    text = """\
m: 2
T: 1.0
coefficients: ["0", "-1"]
nu: 3
initial: ["10*cos(x)", "0"]
K: 8
dt: 0.001
snapshot_interval: 0.1
blowup_ceiling: 1000.0
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BlowUpError"
    report = json.loads((out / "report.json").read_text())
    assert report["completed"] is False
    assert report["abort_reason"] == "blow-up"
    assert 0.0 < report["last_valid_time"] <= report["abort_time"] < 1.0
    assert written(out) == ["report.json", "run_meta.json", "spectrum.csv"]  # the partial run


# u_tt = u^2 starting below the ceiling (see zero_mode_spec in test_spectral):
# the linear calibration member crosses 0.99 at t = 0.3, the problem at 0.54
ZERO_MODE_YAML = """\
m: 2
T: {horizon}
coefficients: ["0", "0"]
nu: 2
initial: ["-1.4", "1.9*cos(x)"]
K: 8
dt: 0.01
snapshot_interval: 0.1
blowup_ceiling: 0.99
"""


def test_cli_analyze_calibration_abort_exit_one(tmp_path, capsys):
    # the linear calibration member's |V_1| grows like t past the ceiling; the problem completes
    cfg = write_config(tmp_path, ZERO_MODE_YAML.format(horizon=0.4))
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {
        "error": "BlowUpError",
        "message": "blow-up: sup|V| = 0.991829 exceeds ceiling 0.99 at t = 0.3",
    }
    assert not out.exists()  # an error creates no output directory


def test_cli_analyze_problem_abort_exit_two_after_calibration_abort(tmp_path, capsys):
    # both members abort, the calibration first: the problem's abort decides
    cfg = write_config(tmp_path, ZERO_MODE_YAML.format(horizon=1.0))
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BlowUpError" and err["message"].endswith("at t = 0.54")
    report = json.loads((out / "report.json").read_text())
    assert report["abort_reason"] == "blow-up" and report["abort_time"] == pytest.approx(0.54)
    assert (out / "spectrum.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_cli_initial_state_above_the_ceiling_exit_two(tmp_path, capsys, command):
    # |u_0'| = 1 at t = 0 is already past the 0.99 ceiling: no step is taken
    text = ZERO_MODE_YAML.format(horizon=0.4).replace('["0", "0"]', '["0", "-1"]')
    text = text.replace('["-1.4", "1.9*cos(x)"]', '["2", "-1"]')
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--output", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == "blow-up: sup|V| = 1 exceeds ceiling 0.99 at t = 0"
    report = json.loads((out / "report.json").read_text())
    assert report["abort_time"] == 0.0 and report["last_valid_time"] is None
    assert written(out) == ["report.json", "run_meta.json"]


def test_cli_check_refuses_a_domain_fault_inside_a_coefficient(tmp_path, capsys):
    # -exp(-1/t) runs through -1/0 at t = 0; its value there, exp(-inf) = 0, is no excuse
    text = WAVE_YAML.replace('coefficients: ["0", "-1"]', 'coefficients: ["0", "-exp(-1/t)"]')
    assert main(["check", "--config", write_config(tmp_path, text)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "DomainError", "message": "non-finite value at t = 0.0"}


def test_cli_analyze_error_after_the_run_writes_nothing(tmp_path, capsys):
    # the run and its ledger complete; the certificate's root check then fails
    text = WAVE_YAML.replace('coefficients: ["0", "-1"]', 'coefficients: ["0", "1"]')
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NonHyperbolicError"
    assert not out.exists()


def test_cli_analyze_j_max_170_keeps_the_moments_finite(tmp_path):
    # A_170 formed 2 * 64^170 * 65 = inf before |V_k(0)| ~ 1e-17 could scale it back: G0 read inf.
    # The data cos(x) leave |V_1(0)| = 1/2 and N = 1 in the band, so G0 = 2 * 2^N e^r0 / 2 = 2 e^(1/4)
    text = (CONFIGS / "wave.yaml").read_text() + "constants:\n  J_max: 170\n"
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)]) == 0
    continuation = json.loads((out / "report.json").read_text())["ledger"]["continuation"]
    assert continuation["G0"] == pytest.approx(2.0 * math.exp(0.25), rel=1e-12)
    assert continuation["degenerate_at_start"] is False and continuation["passed"] is True


# C0 = 1e4 takes rho(0, k) past 709, where e^rho overflows and meets modes that are exactly zero
OVERFLOWING_WEIGHT_YAML = """\
m: 2
T: 0.2
coefficients: ["0", "-10000"]
nu: 2
initial: ["0.001*cos(x)", "0"]
K: 8
dt: 0.0002
snapshot_interval: 0.02
"""


def test_cli_analyze_overflowing_weight_fails_continuation(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, OVERFLOWING_WEIGHT_YAML)
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 1
    ledger = json.loads((out / "report.json").read_text())["ledger"]
    assert ledger["master"]["ratio"] == "inf" and ledger["C"] == "inf"
    continuation = ledger["continuation"]
    assert continuation["passed"] is False
    # r(0) = r0 exactly, so G(0) is a number below L = inf; G reaches inf at the next snapshot
    assert isinstance(continuation["G0"], float) and continuation["first_crossing"] == 0.02
    assert written(out) == [
        "energies.csv", "radius.csv", "report.json", "run_meta.json", "spectrum.csv",
    ]


# the default C0 is 1e4 here: e^rho overflows at every snapshot before T, and so do C and M
OVERFLOWING_LEDGER_YAML = """\
m: 2
T: 0.1
coefficients: ["0", "-10000"]
nu: {nu}
initial: ["cos(x)", "0"]
K: 16
dt: 1.0e-4
snapshot_interval: 0.02
"""


@pytest.mark.parametrize("nu", [2, 0])
def test_cli_analyze_overflowed_ledger_reads_no_nan_and_fails(tmp_path, nu):
    # nu = 2 took r(0) = r0 exp(-inf * 0) = nan; nu = 0 passed, as (C M)^0 = 1 kept L finite
    out = tmp_path / "out"
    cfg = write_config(tmp_path, OVERFLOWING_LEDGER_YAML.format(nu=nu))
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 1
    report = (out / "report.json").read_text()
    energies = (out / "energies.csv").read_text()
    assert "nan" not in report and "nan" not in energies.lower()
    ledger = json.loads(report)["ledger"]
    assert (ledger["C"], ledger["M"]) == ("inf", "inf")
    assert ledger["continuation"]["passed"] is False
    _, header, rows = read_csv(out / "energies.csv")
    assert float(rows[0][header.index("r")]) == 0.25  # r(0) = r0


@pytest.mark.parametrize("nu, cm_power", [(2, "inf"), (0, 1.0)])
def test_cli_analyze_overflowed_ledger_fails_the_sharp_audit(tmp_path, nu, cm_power):
    # C = M = inf: at nu = 2 (C M)^nu and G overflow, at nu = 0 (C M)^0 = 1 stays finite;
    # either way the sharp bound G(0) + (C M)^nu t would hold vacuously
    out = tmp_path / "out"
    cfg = write_config(tmp_path, OVERFLOWING_LEDGER_YAML.format(nu=nu))
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 1
    ledger = json.loads((out / "report.json").read_text())["ledger"]
    continuation = ledger["continuation"]
    assert (ledger["C"], ledger["M"], continuation["CM_power"]) == ("inf", "inf", cm_power)
    assert continuation["sharp_excess"] == 0.0
    assert continuation["sharp_passed"] is False


def test_cli_reads_plain_exponent_floats(tmp_path):
    # YAML 1.1 reads 1e-2 and 1e9 as strings; they are the numbers 0.01 and the default ceiling
    plain, exponent = tmp_path / "plain", tmp_path / "exponent"
    assert main(["simulate", "--config", write_config(tmp_path), "--output", str(plain)]) == 0
    text = WAVE_YAML.replace("dt: 0.01", "dt: 1e-2") + "blowup_ceiling: 1e9\n"
    cfg = write_config(tmp_path, text, "exponent.yaml")
    assert main(["simulate", "--config", cfg, "--output", str(exponent)]) == 0
    assert written(exponent) == written(plain)
    for name in written(plain):
        assert (exponent / name).read_bytes() == (plain / name).read_bytes(), name


def test_cli_finite_state_past_the_square_overflow(tmp_path):
    # |V_1| = 5e199 for all t: its square overflows, the state is finite and below the ceiling
    text = WAVE_YAML.replace('["cos(x)", "0"]', '["1e200*cos(x)", "0"]')
    out = tmp_path / "out"
    cfg = write_config(tmp_path, text + "blowup_ceiling: 1.0e+300\n")
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 0
    facts = json.loads((out / "report.json").read_text())["integration"]
    assert facts["steps"] == 100
    assert facts["peak_sup_v_ratio"] == pytest.approx(5e-101, rel=1e-12)


# a finite state far above 1e154, where the squares of the norms overflow
BIG_STATE_YAML = """\
m: 2
T: 0.1
coefficients: ["0", "-1"]
nu: 0
initial: ["1e200*cos(x)", "0"]
K: 8
dt: 0.01
blowup_ceiling: 1.0e+300
"""


def test_cli_norms_stay_finite_past_the_square_overflow(tmp_path):
    cfg = write_config(tmp_path, BIG_STATE_YAML)
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--output", str(sim)]) == 0
    assert json.loads((sim / "report.json").read_text())["final_sup_v"] == pytest.approx(5e199, rel=1e-12)
    out = tmp_path / "out"
    # the ledger is finite, and the verdict holds: the budget (CM)^nu T = 0.1 is far below
    # the ulp of G0, but the test compares it with G(t) - G(0), formed without cancelling G0
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 0
    ledger = json.loads((out / "report.json").read_text())["ledger"]
    for key in ("M0", "M", "C", "L"):
        assert isinstance(ledger[key], float) and math.isfinite(ledger[key]), key
    assert ledger["M0"] == pytest.approx(1.2214027581601743e200, rel=1e-12)
    assert ledger["continuation"]["degenerate_at_start"] is False


@pytest.mark.parametrize(
    "command, text, code, err",
    [
        # the FFT of the data overflows; numpy warns about it at each step of the transform
        (
            "simulate",
            WAVE_YAML.replace('["cos(x)", "0"]', '["1e308*cos(x)", "0"]'),
            2,
            {"error": "BlowUpError", "message": "non-finite state at t = 0"},
        ),
        ("analyze", OVERFLOWING_WEIGHT_YAML, 1, None),
    ],
    ids=["fft-overflow", "overflowing-weight"],
)
def test_cli_stderr_is_empty_or_one_json_object(tmp_path, command, text, code, err):
    # in a process of its own, where no test harness collects numpy's warnings
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); from weakhyp.cli import main; "
        "sys.exit(main(sys.argv[2:]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    argv = [command, "--config", write_config(tmp_path, text), "--output", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", probe, src, *argv], capture_output=True, text=True)
    assert proc.returncode == code
    if err is None:
        assert proc.stderr == ""
    else:
        assert proc.stderr.count("\n") == 1 and json.loads(proc.stderr) == err


def test_cli_analyze_integration_facts(tmp_path):
    text = WAVE_YAML.replace('initial: ["cos(x)", "0"]', 'nu: 2\ninitial: ["0.1*cos(x)", "0"]')
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 0
    facts = json.loads((out / "report.json").read_text())["integration"]
    assert facts["steps"] == 100 and facts["dt"] == 0.01
    assert facts["stability_ratio"] == pytest.approx(0.01 * 2.0 * 8 / 2.5)
    assert 0.0 < facts["peak_sup_v_ratio"] < 1e-9
    assert facts["linear_calibration"] is True
    # simulate reports the same run facts, without the calibration flag
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--output", str(sim)]) == 0
    sim_facts = json.loads((sim / "report.json").read_text())["integration"]
    only_analyze = ("linear_calibration", "galerkin_residual_estimate")
    assert sim_facts == {k: v for k, v in facts.items() if k not in only_analyze}
    # an explicit loss exponent needs no calibration member
    out = tmp_path / "fixed"
    text = text.replace("  J_max: 8", "  J_max: 8\n  N: 3")
    cfg = write_config(tmp_path, text, "fixed.yaml")
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 0
    facts = json.loads((out / "report.json").read_text())["integration"]
    assert facts["linear_calibration"] is False


def test_cli_symmetrizer_non_hyperbolic_names_the_time(tmp_path, capsys):
    text = WAVE_YAML.replace('coefficients: ["0", "-1"]', 'coefficients: ["0", "1 - 2*t", "0"]')
    text = text.replace("m: 2", "m: 3").replace('initial: ["cos(x)", "0"]', 'initial: ["cos(x)", "0", "0"]')
    cfg = write_config(tmp_path, text)
    for command in ("check", "symmetrizer"):
        assert main([command, "--config", cfg, "--output", str(tmp_path / command)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NonHyperbolicError"
        assert err["message"].startswith("non-real characteristic root at t = 0.0: |Im| = 1.0")


def test_cli_stability_exit_three(tmp_path, capsys):
    text = """\
m: 2
T: 1.0
coefficients: ["0", "-1"]
initial: ["cos(x)", "0"]
K: 512
dt: 0.01
snapshot_interval: 0.5
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--output", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "StabilityError"
    report = json.loads((out / "report.json").read_text())
    assert report["abort_reason"] == "stability"
    assert written(out) == ["report.json", "run_meta.json"]


def test_cli_config_errors_are_structured(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["check", "--config", str(tmp_path / "missing.yaml"), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError"

    bad = tmp_path / "bad.yaml"
    bad.write_text(WAVE_YAML + "mystery: 1\n")
    assert main(["check", "--config", str(bad), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert err["field"] == "mystery"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, field, message",
    [
        (WAVE_YAML + "G: 32\n", "G", "unknown key"),
        (WAVE_YAML + "K: 16\n", None, "duplicate key 'K' on line 15"),
        (WAVE_YAML + "constants:\n  r0: 0.3\n", None, "duplicate key 'constants' on line 15"),
        (
            WAVE_YAML.replace("  times: 3", "  times: 3\n  eps_set: [0.5, 0.1, 0.5]"),
            "certificate.eps_set",
            "every eps in (0, 1], and distinct",
        ),
    ],
    ids=["removed-key", "repeated-key", "repeated-section", "repeated-eps"],
)
def test_cli_refuses_removed_and_repeated_keys(tmp_path, capsys, text, field, message):
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    err = json.loads(err)
    assert err["error"] == "ConfigError" and err.get("field") == field
    assert message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "symmetrizer"])
def test_cli_negative_seed_is_a_config_error(tmp_path, capsys, command):
    # random.Random seeds -s as s, so a negative seed is refused at load
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path), "--seed", "-1", "--output", str(out)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["field"] == "seed"
    assert err["message"].startswith('config error at "seed"')
    assert not out.exists()


@pytest.mark.parametrize(
    "sub, error", [("", "FileExistsError"), ("sub", "NotADirectoryError")], ids=["file", "below-a-file"]
)
@pytest.mark.parametrize(
    "command, text",
    # simulate at K = 512 is a stability abort (exit 3), whose own error is not printed when its files fail
    [("check", WAVE_YAML), ("simulate", WAVE_YAML.replace("K: 8", "K: 512"))],
    ids=["check", "guard-abort"],
)
def test_cli_output_naming_a_file_is_one_json_error(tmp_path, capsys, command, text, sub, error):
    # --output is created where the files are written, inside the error handling
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    output = taken / sub if sub else taken
    assert main([command, "--config", write_config(tmp_path, text), "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and json.loads(err)["error"] == error
    assert taken.read_text() == "kept\n"


def test_cli_import_loads_no_test_tooling():
    # every CLI process pays for its imports; scipy, hypothesis and mpmath
    # are for tests and references only (the ring size, for one, is computed
    # in spectral rather than taken from scipy.fft.next_fast_len)
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import weakhyp.cli; "
        "print(json.dumps(sorted({name.split('.')[0] for name in sys.modules})))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    assert "weakhyp" in loaded
    assert loaded.isdisjoint({"scipy", "hypothesis", "mpmath"})


def test_cli_parser_is_built_once_and_parses_as_before(tmp_path, capsys):
    # importing the CLI builds no parser; main builds it on first use and then reuses it
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import weakhyp.cli; "
        "print(weakhyp.cli.build_parser.cache_info().currsize)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe, src], capture_output=True, text=True, check=True
    )
    assert out.stdout == "0\n"
    shared = cli.build_parser()
    before = cli.build_parser.cache_info()
    cfg = write_config(tmp_path)
    for _ in range(2):
        assert main(["check", "--config", cfg, "--output", str(tmp_path / "out")]) == 0
    after = cli.build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 2)
    fresh = cli.build_parser.__wrapped__()
    argv = ["analyze", "--config", cfg, "--seed", "3", "--threads", "2", "--output", "out"]
    assert shared.parse_args(argv) == fresh.parse_args(argv)
    capsys.readouterr()
    for args in (["--help"], ["symmetrizer", "--help"]):
        helps = []
        for parser in (fresh, shared):
            with pytest.raises(SystemExit):
                parser.parse_args(args)
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] != ""


# The certify_m3 benchmark's certificate: roots {-t, 0, t} on 129 times
CERTIFY_M3_YAML = """\
m: 3
T: 1.0
coefficients: ["0", "-t^2", "0"]
initial: ["cos(x)", "0", "0"]
certificate:
  times: 129
  samples: 10000
  eps_set: [1.0, 0.1, 0.01]
"""

# hashlib loads OpenSSL, and so does numpy.random (through secrets)
OPENSSL = {"_hashlib", "numpy.random"}


def test_cli_analyze_loads_no_openssl_and_no_thread_pool(tmp_path):
    # the config hash needs no hashlib, the certificate's sample directions no
    # numpy.random, and a run with one thread no thread pool
    text = WAVE_YAML.replace("symmetrizer_certificate: true", "symmetrizer_certificate: false")
    cfg = write_config(tmp_path, text.replace('initial: ["cos(x)", "0"]', 'nu: 2\ninitial: ["0.1*cos(x)", "0"]'))
    code, loaded, _ = run_fresh(["analyze", "--config", cfg, "--output", str(tmp_path / "out")])
    assert code == 0 and loaded.isdisjoint(OPENSSL | {"concurrent.futures"}), loaded
    assert written(tmp_path / "out") == ["energies.csv", "radius.csv", "report.json", "run_meta.json", "spectrum.csv"]
    argv = ["analyze", "--config", str(CONFIGS / "wave.yaml"), "--output", str(tmp_path / "cert")]
    code, loaded, _ = run_fresh(argv)
    assert code == 0 and loaded.isdisjoint(OPENSSL | {"concurrent.futures"}), loaded
    assert "certificate.json" in written(tmp_path / "cert")


def test_cli_symmetrizer_loads_no_openssl(tmp_path):
    cfg = write_config(tmp_path, CERTIFY_M3_YAML)
    code, loaded, _ = run_fresh(["symmetrizer", "--config", cfg, "--threads", "2", "--output", str(tmp_path / "out")])
    assert code == 0 and loaded.isdisjoint(OPENSSL), loaded
    assert "weakhyp.quasisym" in loaded  # the probe sees what the run loaded


def test_cli_symmetrizer_matches_the_benchmark_reference(tmp_path):
    # the aggregate constants the certify_m3 benchmark checks, at its rtol,
    # against its frozen 40-digit reference: no sample source moves them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "cert_reference.json"
    frozen = json.loads(path.read_text())
    assert frozen["times"] == 129 and frozen["eps_set"] == [1.0, 0.1, 0.01]
    cfg = write_config(tmp_path, CERTIFY_M3_YAML)
    assert main(["symmetrizer", "--config", cfg, "--output", str(tmp_path / "out")]) == 0
    aggregate = json.loads((tmp_path / "out" / "certificate.json").read_text())["aggregate"]
    assert aggregate["pass"] is True
    reported = {"c_nd_eps_slope", "witness_gap", "sampled_C_comm", "sampled_c_nd"}
    assert set(frozen["aggregate"]) == set(aggregate) - {"pass"} - reported
    for name, text in frozen["aggregate"].items():
        assert aggregate[name] == pytest.approx(float(text), rel=1e-9, abs=0.0), name


def test_certificate_payload_memory(tmp_path):
    # the random directions are streamed block by block and audited only at
    # the two rows that set the aggregate: no (samples, m) direction array and
    # no (rows, samples) form table.  A repeat call peaks at 0.61 MB; the
    # all-rows audit of the moments peaked at 1.84 MB, and at 3.04 MB with a
    # direction array.  The bound keeps the 1.2 margin of the 2.2 MB bound
    # that held the 1.84 MB peak.
    cfg = load_config(write_config(tmp_path, CERTIFY_M3_YAML))
    cli._certificate_payload(cfg)  # first call: imports and caches
    tracemalloc.start()
    try:
        payload = cli._certificate_payload(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload["aggregate"]["pass"] is True and len(payload["per_time"]) == 129
    assert peak < 7.3e5, peak


def test_cli_symmetrizer_seed_moves_only_the_sampled_audit(tmp_path):
    text = WAVE_YAML.replace('coefficients: ["0", "-1"]', 'coefficients: ["0", "-t^2", "0"]')
    text = text.replace("m: 2", "m: 3").replace('initial: ["cos(x)", "0"]', 'initial: ["cos(x)", "0", "0"]')
    cfg = write_config(tmp_path, text.replace("times: 3", "times: 9"))
    certs = []
    for seed in ("3", "4"):
        out = tmp_path / seed
        assert main(["symmetrizer", "--config", cfg, "--seed", seed, "--output", str(out)]) == 0
        certs.append(json.loads((out / "certificate.json").read_text()))
    three, four = certs
    assert three.pop("config_sha256") != four.pop("config_sha256")  # the seed is part of the config
    sampled = ("sampled_C_comm", "sampled_c_nd")
    assert all(three["aggregate"].pop(key) != four["aggregate"].pop(key) for key in sampled)
    assert three == four and three["aggregate"]["pass"] is True


def perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve():
    # the benchmark tracer rebinds these names from outside; a renamed or
    # deleted one must fail here rather than break the traced benchmark run
    tracing = perfbench_tracing()
    for module_name, attr_path, _ in [*tracing.TARGETS, tracing.MAP_TARGET]:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr_path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr_path}"


def test_tracer_spans_a_cli_run(tmp_path):
    # the traced benchmark run needs more than resolving names: the CLI must
    # look each one up when it calls it, so that its span nests under
    # cli.dispatch, and uninstalling must restore every binding
    tracing = perfbench_tracing()
    targets = [(module, path) for module, path, _ in [*tracing.TARGETS, tracing.MAP_TARGET]]

    def bound(module: str, path: str):
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    before = [bound(*target) for target in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["analyze", "--config", write_config(tmp_path), "--output", str(tmp_path / "out")]
        assert main([*argv, "--threads", "2"]) == 0
    finally:
        tracer.uninstall()
    assert all(bound(*target) is fn for target, fn in zip(targets, before))
    names = {span[0]: span[1] for span in tracer.spans}
    parents = {}
    for _, name, _, _, parent, _ in tracer.spans:
        parents.setdefault(name, set()).add(names.get(parent))
    assert parents["config.load_config"] == {None}
    assert parents["cli.dispatch"] == {None}
    for name in (
        "spectral.simulate", "energy.build_energy_ledger", "energy.default_c0",
        "parallel.ordered_map", "quasisym.verify_quasi_symmetrizer",
    ):
        assert parents[name] == {"cli.dispatch"}, name
    assert parents["parallel.item"] == {"parallel.ordered_map"}
    assert parents["radius.fit_decay"] == {"parallel.item"}


def test_tracer_install_and_uninstall_restore_every_binding():
    # a traced benchmark run installs the tracer on the package and uninstalls
    # it after each iteration: every name it rebinds must exist, and every
    # namespace holding one must come back exactly as it was
    tracing = perfbench_tracing()
    bindings = []
    for module, path, _ in [*tracing.TARGETS, tracing.MAP_TARGET]:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        bindings.append((owner, attr, f"{module}.{path}"))
    owners = {id(owner): owner for owner, _, _ in bindings}

    def namespaces():
        return {key: dict(vars(owner)) for key, owner in owners.items()}

    before = namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = namespaces()
    finally:
        tracer.uninstall()
    after = namespaces()
    for owner, attr, name in bindings:
        assert during[id(owner)][attr] is not before[id(owner)][attr], name
    for key, names in before.items():
        assert after[key].keys() == names.keys()
        assert all(after[key][name] is value for name, value in names.items())


@pytest.mark.parametrize(
    "overrides, sources",
    [
        ("", {"C0": "default", "N": "fitted", "C": "measured"}),
        ("  N: 2\n  C: 50\n  C0: 3\n", {"C0": "override", "N": "override", "C": "override"}),
        # no N up to 2m+4 reaches the target C = 0.001, so N falls back to m + 1
        ("  C: 0.001\n", {"C0": "default", "N": "fallback", "C": "override"}),
    ],
    ids=["defaults", "overrides", "fallback"],
)
def test_cli_analyze_reports_where_each_constant_came_from(tmp_path, overrides, sources):
    text = WAVE_YAML.replace("  J_max: 8\n", "  J_max: 8\n" + overrides)
    out = tmp_path / "out"
    main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert report["constant_sources"] == sources
    ledger = report["ledger"]
    if sources["N"] == "override":
        assert (ledger["C0"], ledger["N"], ledger["C"]) == (3.0, 2, 50.0)
    if sources["N"] == "fallback":
        assert ledger["N"] == 3 and ledger["master"]["fitted_N"] is None


def weakhyp_nu2_at(tmp_path, K):
    """configs/weakhyp_nu2.yaml at K modes and dt = 1.2/K, written to a config file."""
    text = (CONFIGS / "weakhyp_nu2.yaml").read_text()
    text = text.replace("K: 128", f"K: {K}").replace("dt: 0.001", f"dt: {1.2 / K!r}")
    return write_config(tmp_path, text, name=f"k{K}.yaml")


def test_cli_analyze_ledger_does_not_depend_on_k(tmp_path):
    # the truncated series read G0 = 0.370 at K = 128 and 1.5e11 at K = 512 (the
    # round-off plateau weighted by |k|^24); on the resolved band G0 agrees to 1e-11
    reports = []
    for K in (128, 512):
        out = tmp_path / f"out{K}"
        assert main(["analyze", "--config", weakhyp_nu2_at(tmp_path, K), "--output", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text())["ledger"])
    low, high = reports
    assert low["continuation"]["G0"] == pytest.approx(0.3702534022, rel=1e-9)
    assert high["continuation"]["G0"] == pytest.approx(low["continuation"]["G0"], rel=1e-9)
    for key in ("C", "M", "L"):  # C comes from the all-mode master check: 7.331 and 7.375
        assert high[key] == pytest.approx(low[key], rel=0.02), key
    for ledger in reports:
        assert ledger["continuation"]["passed"] and ledger["continuation"]["sharp_passed"]
        assert ledger["band"]["resolved"] is True
        # u_t = 0 at t = 0; later its modes reach further than those of u
        assert ledger["band"]["band_hi"][0] == 44 and max(ledger["band"]["band_hi"]) == 48


def test_cli_analyze_band_keeps_lacunary_data(tmp_path):
    # cos(2x) has u_1 = 0: the band ends after k = 2, not at k = 1, and
    # G0 = 2 <2>^N e^(2 r0) |V_2(0)| with |V_2(0)| = 2 * 1/2 and N = 1
    text = WAVE_YAML.replace('initial: ["cos(x)", "0"]', 'initial: ["cos(2*x)", "0"]')
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)]) == 0
    ledger = json.loads((out / "report.json").read_text())["ledger"]
    assert ledger["band"] == {"band_hi": [3] * 5, "resolved": True}
    assert ledger["N"] == 1
    assert ledger["continuation"]["G0"] == pytest.approx(2.0 * 3.0 * math.exp(2 * 0.25), rel=1e-12)


def test_cli_analyze_band_keeps_the_modes_of_u_t(tmp_path):
    # u = 0.01 cos x ends at k = 1, u_t = cos 5x at k = 5: the band takes both, and
    # G0 = 2 (<1>^N e^(r0) |V_1(0)| + <5>^N e^(5 r0) |V_5(0)|), |V_1| = 0.005, |V_5| = 0.5
    text = WAVE_YAML.replace('initial: ["cos(x)", "0"]', 'initial: ["0.01*cos(x)", "cos(5*x)"]')
    out = tmp_path / "out"
    assert main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)]) == 0
    ledger = json.loads((out / "report.json").read_text())["ledger"]
    assert ledger["band"] == {"band_hi": [6] * 5, "resolved": True}
    n = ledger["N"]
    g0 = 2.0 * (2.0**n * math.exp(0.25) * 0.005 + 6.0**n * math.exp(5 * 0.25) * 0.5)
    assert ledger["continuation"]["G0"] == pytest.approx(g0, rel=1e-12)


def test_cli_analyze_data_at_rest_in_u_do_not_depend_on_k(tmp_path):
    # u = 0 at t = 0: the band of u_t ends where its 2^-k meets the round-off, at every K
    base = WAVE_YAML.replace('initial: ["cos(x)", "0"]', 'initial: ["0", "0.75/(1.25 - cos(x))"]')
    ledgers = []
    for K, dt in ((128, 0.005), (512, 0.001)):
        text = base.replace("K: 8", f"K: {K}").replace("dt: 0.01", f"dt: {dt}")
        out = tmp_path / f"out{K}"
        assert main(["analyze", "--config", write_config(tmp_path, text, f"k{K}.yaml"), "--output", str(out)]) == 0
        ledgers.append(json.loads((out / "report.json").read_text())["ledger"])
    low, high = ledgers
    assert low["band"]["band_hi"][0] == high["band"]["band_hi"][0] == 44
    assert low["band"]["resolved"] and high["band"]["resolved"]
    assert high["continuation"]["G0"] == pytest.approx(low["continuation"]["G0"], rel=1e-9)


def test_cli_analyze_band_is_unresolved_when_the_plateau_lies_beyond_k(tmp_path):
    # the Poisson kernel's 2^-k reaches 1e-13 of its peak only near k = 43, far beyond K = 8
    text = WAVE_YAML.replace('initial: ["cos(x)", "0"]', 'initial: ["0.75/(1.25 - cos(x))", "0"]')
    out = tmp_path / "out"
    main(["analyze", "--config", write_config(tmp_path, text), "--output", str(out)])
    band = json.loads((out / "report.json").read_text())["ledger"]["band"]
    assert band == {"band_hi": [9] * 5, "resolved": False}
