"""Config schema validation and CLI end-to-end runs.

The CLI contract under test: exit 0 on success, 1 on invalid input or a
failed verdict, 2 on blow-up, 3 on a stability veto; structured one-line
JSON on stderr for errors; every output file stamped with the semantic
config hash, which ignores threads and output_dir.
"""

import importlib.util
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakhyp import ConfigError, RunConfig, cli, load_config
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
    assert (out / "run_meta.json").exists()


def test_cli_check_double_root_fails(tmp_path):
    text = WAVE_YAML.replace('coefficients: ["0", "-1"]', 'coefficients: ["-2", "1"]')
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--output", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["satisfied"] is False
    assert report["diam"]["M_sup"] == "inf"  # sanitized for JSON
    assert report["discriminant"]["holds"] is False


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
    cli._emit_spectrum(SimpleNamespace(output_dir=str(tmp_path)), traj, "abc")
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
    cli._emit_spectrum(SimpleNamespace(output_dir=str(tmp_path)), traj, "abc")
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
    with tempfile.TemporaryDirectory() as out:
        cli._write_spectrum(out, times, v, "abc")
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
    for name in (
        "spectrum.csv", "energies.csv", "radius.csv",
        "report.json", "run_meta.json", "certificate.json",
    ):
        assert (out / name).exists(), name

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
    assert (out / "run_meta.json").exists()


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
    assert (out / "spectrum.csv").exists()  # partial trajectory still written


ZERO_MODE_YAML = """\
m: 2
T: {horizon}
coefficients: ["0", "-1"]
nu: 2
initial: ["2", "-1"]
K: 8
dt: 0.01
snapshot_interval: 0.1
blowup_ceiling: 0.99
"""


def test_cli_analyze_calibration_abort_exit_one(tmp_path, capsys):
    # the linear calibration member keeps |u_0'| = 1 above the ceiling; the problem completes
    cfg = write_config(tmp_path, ZERO_MODE_YAML.format(horizon=0.4))
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {
        "error": "BlowUpError",
        "message": "blow-up: sup|V| = 1 exceeds ceiling 0.99 at t = 0.01",
    }
    assert list(out.iterdir()) == []


def test_cli_analyze_problem_abort_exit_two_after_calibration_abort(tmp_path, capsys):
    # both members abort, the calibration first: the problem's abort decides
    cfg = write_config(tmp_path, ZERO_MODE_YAML.format(horizon=1.0))
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--output", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BlowUpError" and err["message"].endswith("at t = 0.55")
    report = json.loads((out / "report.json").read_text())
    assert report["abort_reason"] == "blow-up" and report["abort_time"] == pytest.approx(0.55)
    assert (out / "spectrum.csv").exists()


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
    assert not (out / "spectrum.csv").exists()


def test_cli_config_errors_are_structured(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "missing.yaml")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError"

    bad = tmp_path / "bad.yaml"
    bad.write_text(WAVE_YAML + "mystery: 1\n")
    assert main(["check", "--config", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError"
    assert err["field"] == "mystery"


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


def test_traced_names_resolve():
    # the benchmark tracer rebinds these names from outside; a renamed or
    # deleted one must fail here rather than break the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr_path, _ in [*tracing.TARGETS, tracing.MAP_TARGET]:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr_path}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr_path}"
