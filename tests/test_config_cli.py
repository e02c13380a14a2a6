"""Config schema validation and CLI end-to-end runs.

The CLI contract under test: exit 0 on success, 1 on invalid input or a
failed verdict, 2 on blow-up, 3 on a stability veto; structured one-line
JSON on stderr for errors; every output file stamped with the semantic
config hash, which ignores threads and output_dir.
"""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from weakhyp import ConfigError, RunConfig, cli, load_config
from weakhyp.cli import main
from weakhyp.spectral import Trajectory


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
    assert report["final_reality_defect"] < 1e-12


def reference_spectrum_bytes(traj, sha: str) -> bytes:
    """spectrum.csv as formatted cell by cell with %.17g."""
    m = traj.order
    header = ["t", "k"] + [f"{p}_V{c}" for c in range(m) for p in ("re", "im")]
    lines = [f"# config_sha256={sha}", ",".join(header)]
    v = traj.v_series()
    for i, t in enumerate(traj.times):
        for idx, k in enumerate(traj.modes):
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
    chains = rng.standard_normal((S, 2 * K + 1, m)) * 10.0 ** rng.integers(-320, 300, (S, 2 * K + 1, m))
    chains = chains + 1j * rng.standard_normal((S, 2 * K + 1, m))
    chains[0, 0] = [np.nan, np.inf, -0.0]
    chains[1, 1] = [-np.inf, 0.0, 1e-310]
    traj = Trajectory(
        order=m, K=K, dt=0.1, nu=0, times=np.array([0.0, 1 / 3, 0.7, 1.0]),
        chains=chains, forcings=np.zeros((S, 2 * K + 1), dtype=complex), completed=True,
    )
    cli._emit_spectrum(SimpleNamespace(output_dir=str(tmp_path)), traj, "abc")
    assert (tmp_path / "spectrum.csv").read_bytes() == reference_spectrum_bytes(traj, "abc")


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
