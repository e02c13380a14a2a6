"""Config schema validation and CLI end-to-end runs.

The CLI contract under test: exit 0 on success, 1 on invalid input or a
failed verdict, 2 on blow-up, 3 on a stability veto; structured one-line
JSON on stderr for errors; every output file stamped with the semantic
config hash, which ignores threads and output_dir.  Files are written only
when a command returns an exit code or a guard aborts the run (exit 2 or 3);
each path below pins the exact set of files it writes.
"""

import hashlib
import importlib.util
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakhyp import ConfigError, RunConfig, cli, config, load_config
from weakhyp.cli import main
from weakhyp.equation import CoefficientSpec
from weakhyp.spectral import Trajectory, simulate


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
    assert cfg.grid == 256  # smallest power of two >= 4K
    assert cfg.dt == 1e-3
    assert cfg.snapshot_interval == pytest.approx(0.01)  # T / 100
    assert cfg.eps_set == (1.0, 0.1, 0.01)
    assert cfg.j_max == 24
    assert cfg.threads == 1
    assert cfg.output_dir == "out"


def test_grid_default_rounds_up_to_power_of_two():
    cfg = RunConfig.from_dict({**base(), "K": 100})
    assert cfg.grid == 512


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
        ({"G": 100, "K": 16}, "G"),
        ({"dt": 1.0}, "dt"),
        ({"snapshot_interval": 0.0}, "snapshot_interval"),
        ({"constants": {"C0": 0.5}}, "constants.C0"),
        ({"constants": {"eta": 1.5}}, "constants.eta"),
        ({"constants": {"r0": 0.0}}, "constants.r0"),
        ({"certificate": {"eps_set": [1.5]}}, "certificate.eps_set"),
        ({"certificate": {"samples": 0}}, "certificate.samples"),
        ({"threads": 0}, "threads"),
        ({"blowup_ceiling": 0.0}, "blowup_ceiling"),
        ({"check_grid": 2}, "check_grid"),
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
        RunConfig.from_dict({**base(), "diagnostics": {"energies": 1}})


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
        ("wave.yaml", "f3a7ead2bef8e77a700dc02c162a0f732f93255778da6a2e3a9637628eebf4cb"),
        ("weakhyp_nu2.yaml", "ddc7d4701b8af6635487a32f5dd5725f8169ad7783e420294412097e1c5c10bb"),
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
    "G": lambda d: st.integers(0, 3).map(lambda e: 1 << ((4 * d["K"] - 1).bit_length() + e)),
    "dt": lambda d: number(0.0, d["T"], exclude_min=True, exclude_max=True),
    "snapshot_interval": lambda d: number(0.0, d["T"], exclude_min=True),
    "diagnostics.energies": lambda d: st.booleans(),
    "diagnostics.radius": lambda d: st.booleans(),
    "diagnostics.symmetrizer_certificate": lambda d: st.booleans(),
    "constants.C0": lambda d: st.none() | number(1.0, 1e6),
    "constants.N": lambda d: st.none() | st.integers(0, 30),
    "constants.C": lambda d: st.none() | number(0.0, 1e6, exclude_min=True),
    "constants.c": lambda d: number(0.0, 1.0),
    "constants.r0": lambda d: number(0.0, 10.0, exclude_min=True),
    "constants.J_max": lambda d: st.integers(1, 64),
    "constants.eta": lambda d: number(0.0, 1.0, exclude_min=True),
    "constants.s": lambda d: number(0.0, 10.0, exclude_min=True),
    "constants.k_gevrey": lambda d: st.none() | st.integers(1, 10),
    "constants.lambda_k": lambda d: number(0.0, 10.0, exclude_min=True),
    "certificate.eps_set": lambda d: st.lists(number(0.0, 1.0, exclude_min=True), min_size=1),
    "certificate.samples": lambda d: st.integers(1, 10**6),
    "certificate.nd_floor": lambda d: number(0.0, 1.0),
    "certificate.times": lambda d: st.integers(1, 1000),
    "seed": lambda d: st.integers(-(2**40), 2**40),
    "threads": lambda d: st.integers(1, 64),
    "output_dir": lambda d: st.text(min_size=1, max_size=8),
    "blowup_ceiling": lambda d: number(0.0, 1e300, exclude_min=True),
    "check_grid": lambda d: st.integers(3, 10**5),
}
ALWAYS_GIVEN = {"m", "T", "coefficients", "initial", "K"}  # required, or read by other rows


def test_every_schema_row_has_a_value_strategy():
    assert list(ROW_VALUES) == [key.path for key in config._SCHEMA]


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
        "constants.r0", "constants.eta", "constants.s", "constants.lambda_k",
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
    ],
)
def test_load_config_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


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
    """Companion vectors of modes -K..K, as the full-layout trajectory computed them.

    Rows -K..-1 of the chains are the conjugate mirror of rows K..1, and
    column c of V at mode k is (ik)^(m-1-c) * chain[..., c].
    """
    chains = np.concatenate([traj.chains[:, :0:-1].conj(), traj.chains], axis=1)
    ik = 1j * np.arange(-traj.K, traj.K + 1)
    m = traj.order
    v = np.empty_like(chains)
    for c in range(m):
        v[..., c] = ik ** (m - 1 - c) * chains[..., c]
    return v


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
    # non-finite, signed-zero and subnormal cells reach the rows -K..-1 through the formula
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
    v = full_layout_v(traj)
    if m == 2:
        # the all-zero u_t column at t = 0: both imaginary zeros are +0, not mirrored signs
        zeros = v[0, :, 1].imag
        assert not zeros.any() and not np.signbit(zeros).any()
    cli._write_files(str(tmp_path), {"spectrum.csv": cli._spectrum_file(traj)}, "abc")
    assert (tmp_path / "spectrum.csv").read_bytes() == reference_spectrum_bytes(traj.times, v, "abc")


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
    upper = draw_bits(data, S * (K + 1) * m * 2).reshape(S, K + 1, m, 2)
    # rows -K..-1: the conjugate mirror of rows K..1, then some cells replaced by arbitrary bits
    lower = upper[:, :0:-1] ^ np.uint64([0, SIGN])
    stray = np.array(data.draw(st.lists(st.booleans(), min_size=lower.size, max_size=lower.size)))
    lower.reshape(-1)[stray] = draw_bits(data, lower.size)[stray]
    v = np.concatenate([lower, upper], axis=1).view(complex).reshape(S, 2 * K + 1, m)
    times = np.linspace(0.0, 1.0, S)
    header, snapshot = cli._spectrum_format(K, m)
    blocks = [text for t, snap in zip(times.tolist(), v) for text in snapshot(t, snap[K:], snap[:K])]
    with tempfile.TemporaryDirectory() as out:
        cli._write_files(out, {"spectrum.csv": (header, blocks)}, "abc")
        assert (Path(out) / "spectrum.csv").read_bytes() == reference_spectrum_bytes(times, v, "abc")


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
    # the overflowed F series has an inf tail, and an inf tail diverges
    assert ledger["tail_ratio_t0"]["F"] == "inf" and ledger["diverging"] is True
    _, header, rows = read_csv(out / "energies.csv")
    assert float(rows[0][header.index("r")]) == 0.25  # r(0) = r0


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
    # the ledger is finite; the verdict still fails at the start, where the
    # increment (CM)^nu T = 1 is far below the ulp of G0
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 1
    ledger = json.loads((out / "report.json").read_text())["ledger"]
    for key in ("M0", "M", "C", "L"):
        assert isinstance(ledger[key], float) and math.isfinite(ledger[key]), key
    assert ledger["M0"] == pytest.approx(1.2214027581601743e200, rel=1e-12)
    assert ledger["continuation"]["degenerate_at_start"] is True


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
    assert sim_facts == {k: v for k, v in facts.items() if k != "linear_calibration"}
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


def test_cli_analyze_loads_no_openssl_and_no_thread_pool(tmp_path):
    # the config hash needs no hashlib (which loads OpenSSL), and a run with
    # one thread no thread pool; in a process of its own, since pytest and
    # hypothesis import hashlib themselves
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from weakhyp.cli import main; "
        "code = main(sys.argv[2:]); "
        "print(json.dumps([code, sorted({'_hashlib', 'concurrent.futures'} & set(sys.modules))]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    text = WAVE_YAML.replace("symmetrizer_certificate: true", "symmetrizer_certificate: false")
    cfg = write_config(tmp_path, text.replace('initial: ["cos(x)", "0"]', 'nu: 2\ninitial: ["0.1*cos(x)", "0"]'))
    argv = ["analyze", "--config", cfg, "--output", str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", probe, src, *argv], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [0, []]
    assert written(tmp_path / "out") == ["energies.csv", "radius.csv", "report.json", "run_meta.json", "spectrum.csv"]


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
