"""Tests of the benchmark's own logic: tail rule, self times, tracer, output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import mode_system_reference, snapshot_times, wave_reference  # noqa: E402


# -- tail percentile ----------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_above():
    samples = [float(x) for x in range(45, 0, -1)]  # 1..45, unsorted
    value, pct, n = stats.tail(samples)
    assert value == 35.0 and sum(s > value for s in samples) == 10
    assert n == 45 and pct == pytest.approx(100 * 35 / 45)


def test_tail_of_twenty_is_the_median_rank():
    value, pct, n = stats.tail([float(x) for x in range(1, 21)])
    assert (value, pct, n) == (10.0, 50.0, 20)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)
    assert stats.tail([1.0] * 11) == (1.0, pytest.approx(100 / 11), 11)


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_trimmed_mean_matches_scipy_and_ignores_outliers():
    from scipy.stats import trim_mean

    samples = [1.0, 1.1, 0.9, 1.2, 0.8, 1.05, 0.95, 1.0, 1.15, 0.85, 9.0, 0.1]
    assert stats.trimmed_mean(samples) == pytest.approx(trim_mean(samples, 0.1))
    assert stats.trimmed_mean(samples) == pytest.approx(sum(sorted(samples)[1:-1]) / 10)
    assert stats.trimmed_mean([1.0, 2.0, 3.0]) == 2.0  # n * share < 1 drops nothing


# -- self-time arithmetic -------------------------------------------------------


def _span(span_id, name, start, end, parent=tracing.NO_PARENT, iteration=0):
    return (span_id, name, float(start), float(end), parent, iteration)


SPAN_TREE = [
    _span(0, "root", 0, 10),
    _span(1, "a", 1, 3, parent=0),
    _span(2, "a", 2, 5, parent=0),  # overlaps span 1, as threaded children do
    _span(3, "b", 8, 12, parent=0),  # sticks out of its parent: clipped at 10
    _span(4, "c", 2.5, 3, parent=2),  # grandchild: no effect on the root
    _span(5, "root", 20, 21, iteration=1),
]


def test_self_time_subtracts_union_of_children():
    selfs = tracing.self_times(SPAN_TREE)
    assert selfs[0] == pytest.approx(10 - (4 + 2))  # [1,5] and [8,10] covered
    assert selfs[2] == pytest.approx(3 - 0.5)
    assert selfs[1] == pytest.approx(2) and selfs[4] == pytest.approx(0.5)
    assert selfs[5] == pytest.approx(1)


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4)
    assert tracing.covered_length([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2)
    assert tracing.covered_length([], 0, 10) == 0.0


def test_layer_totals_per_iteration():
    counts = [(0, "spectral.mode_steps", 17), (0, "spectral.mode_steps", 17)]
    totals = tracing.layer_totals(SPAN_TREE, counts)
    assert totals[0]["a.calls"] == 2 and totals[0]["a.s"] == pytest.approx(5)
    assert totals[0]["root.self_s"] == pytest.approx(4)
    assert totals[0]["spectral.mode_steps"] == 34
    assert totals[1]["root.s"] == pytest.approx(1) and "a.s" not in totals[1]


def test_speedup_is_item_time_over_map_wall():
    spans = [
        _span(0, "parallel.ordered_map", 0, 2),
        _span(1, "parallel.item", 0, 2, parent=0),
        _span(2, "parallel.item", 0, 1.5, parent=0),
    ]
    assert tracing.layer_totals(spans, [])[0]["parallel.speedup"] == pytest.approx(1.75)


# -- tracer on the real package -----------------------------------------------


def test_tracer_nests_spans_and_restores_bindings(tmp_path):
    import weakhyp.cli as cli
    import weakhyp.spectral as spectral
    from weakhyp.equation import CoefficientSpec

    originals = (cli.simulate, spectral.step, CoefficientSpec.__dict__["coefficients_at"])
    config = tmp_path / "wave.yaml"
    config.write_text(
        'm: 2\nT: 0.1\ncoefficients: ["0", "-1"]\nnu: 0\ninitial: ["cos(x)", "0"]\n'
        "K: 8\ndt: 0.01\nsnapshot_interval: 0.05\ndiagnostics: {symmetrizer_certificate: true}\n"
        "certificate: {samples: 50, times: 3}\n"
    )
    tracer = tracing.Tracer()
    tracer.iteration = 7
    tracer.install()
    try:
        argv = ["analyze", "--config", str(config), "--output", str(tmp_path / "o"), "--threads", "2"]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert (cli.simulate, spectral.step, CoefficientSpec.__dict__["coefficients_at"]) == originals

    by_id = {s[0]: s for s in tracer.spans}
    names = {s[1] for s in tracer.spans}
    assert {"cli.dispatch", "spectral.simulate", "spectral.step", "parallel.item"} <= names
    for span_id, name, start, end, parent, iteration in tracer.spans:
        assert iteration == 7 and start <= end
        if name == "spectral.step":
            assert by_id[parent][1] == "spectral.simulate"
        if name == "parallel.item":
            assert by_id[parent][1] == "parallel.ordered_map"
        if name == "quasisym.verify_quasi_symmetrizer":
            assert by_id[parent][1] == "parallel.item"
    steps = sum(1 for s in tracer.spans if s[1] == "spectral.step")
    assert steps == 10
    assert sum(c[2] for c in tracer.counts if c[1] == "spectral.mode_steps") == 10 * 17


def test_tracer_item_spans_from_worker_threads():
    tracer = tracing.Tracer()

    def fake_map(fn, items, threads=1):
        out = [None] * len(items)
        workers = [threading.Thread(target=lambda i=i: out.__setitem__(i, fn(items[i]))) for i in range(len(items))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
        return out

    assert tracer.wrap_map(fake_map)(lambda x: 2 * x, [1, 2, 3], 3) == [2, 4, 6]
    (map_span,) = [s for s in tracer.spans if s[1] == "parallel.ordered_map"]
    items = [s for s in tracer.spans if s[1] == tracing.ITEM_SPAN]
    assert len(items) == 3 and all(s[4] == map_span[0] for s in items)


# -- accuracy checks fail on perturbed outputs --------------------------------


def _write_spectrum(out_dir, times, v):
    os.makedirs(out_dir, exist_ok=True)
    S, rows, m = v.shape
    K = (rows - 1) // 2
    with open(os.path.join(out_dir, "spectrum.csv"), "w") as handle:
        handle.write("# config_sha256=x\nt,k" + "".join(f",re_V{c},im_V{c}" for c in range(m)) + "\n")
        for i, t in enumerate(times):
            for idx in range(rows):
                cells = ["%.17g" % t, str(idx - K)]
                for c in range(m):
                    cells += ["%.17g" % v[i, idx, c].real, "%.17g" % v[i, idx, c].imag]
                handle.write(",".join(cells) + "\n")


def _write_json(out_dir, name, payload):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as handle:
        json.dump(payload, handle)


def _analyze_report(min_r_hat=0.5, passed=True):
    report = {"completed": True, "ledger": {"continuation": {"passed": passed}}}
    if min_r_hat is not None:
        report["radius_summary"] = {"min_r_hat": min_r_hat}
    return report


def test_weak_check_passes_reference_and_fails_perturbed(tmp_path):
    prepared = workloads.WORKLOADS["weak_k128"](3)
    K = prepared.config["K"]
    amp = float(prepared.config["initial"][0].split("*")[0])
    times = snapshot_times(1.0, prepared.config["dt"], 0.05)
    chain = np.zeros((2 * K + 1, 2), dtype=complex)
    chain[:, 0] = amp * 0.5 ** np.abs(np.arange(-K, K + 1))
    v = mode_system_reference(lambda t: (0.0, -t * t), chain, 2, times)
    out = str(tmp_path / "o")
    _write_spectrum(out, times, v)
    _write_json(out, "report.json", _analyze_report())
    good = prepared.verify(0, 0, out)
    assert good.ok and good.rel_err < 1e-12
    assert prepared.verify(0, 0, out) is good  # a byte-identical repeat is not parsed again

    v[5, K + 1, 0] *= 1 + 1e-6
    _write_spectrum(out, times, v)
    bad = prepared.verify(0, 0, out)
    assert not bad.ok and bad.rel_err > workloads.REL_ERR_LIMIT

    _write_spectrum(out, times[:-1], v[:-1])  # a missing snapshot
    assert not prepared.verify(0, 0, out).ok
    os.remove(os.path.join(out, "spectrum.csv"))
    assert not prepared.verify(0, 0, out).ok
    _write_json(out, "report.json", {"completed": True})  # changed report layout
    assert not prepared.verify(0, 0, out).ok


@pytest.mark.parametrize("report", [_analyze_report(min_r_hat=0.1), _analyze_report(passed=False)])
def test_weak_check_fails_on_verdicts(tmp_path, report):
    prepared = workloads.WORKLOADS["weak_k128"](3)
    out = str(tmp_path / "o")
    _write_json(out, "report.json", report)
    assert not prepared.verify(0, 0, out).ok
    assert not prepared.verify(0, 1, out).ok


def test_wave_check_passes_closed_form_and_fails_perturbed(tmp_path):
    prepared = workloads.WORKLOADS["wave_dense"](4)
    amp = float(prepared.config["initial"][0].split("*")[0])
    times = snapshot_times(1.0, 0.002, 0.002)
    v = wave_reference(amp, 128, times)
    out = str(tmp_path / "o")
    _write_spectrum(out, times, v)
    _write_json(out, "report.json", _analyze_report(min_r_hat=None))
    _write_json(out, "certificate.json", {"aggregate": {"pass": True}})
    assert prepared.verify(0, 0, out).ok

    v[200, 129, 1] += 1e-7
    _write_spectrum(out, times, v)
    assert not prepared.verify(0, 0, out).ok


def test_certify_checks_fail_on_perturbed_constants_and_ratios(tmp_path):
    prepared = workloads.WORKLOADS["certify_m3"](5)
    with open(os.path.join(BENCH, "cert_reference.json")) as handle:
        frozen = json.load(handle)["aggregate"]
    out = str(tmp_path / "o")
    agg = {name: float(value) for name, value in frozen.items()}
    _write_json(out, "certificate.json", {"aggregate": {**agg, "pass": True}})
    assert prepared.verify(1, 0, out).ok
    _write_json(out, "certificate.json", {"aggregate": {**agg, "C_upper": agg["C_upper"] * (1 + 1e-6), "pass": True}})
    assert not prepared.verify(1, 0, out).ok

    grid = workloads.CERTIFY_M3["check_grid"]
    ratios = [0.0] + [1.0] * (grid - 1)
    report = {"satisfied": True, "discriminant": {"holds": True}, "diam": {"M": ratios}}
    _write_json(out, "report.json", report)
    assert prepared.verify(0, 0, out).ok
    ratios[100] = 1.0 + 1e-6
    _write_json(out, "report.json", report)
    assert not prepared.verify(0, 0, out).ok


def test_mode_system_reference_matches_dalembert():
    K = 8
    times = snapshot_times(1.0, 0.01, 0.1)
    chain = np.zeros((2 * K + 1, 2), dtype=complex)
    chain[K - 1, 0] = chain[K + 1, 0] = 0.5
    v = mode_system_reference(lambda t: (0.0, -1.0), chain, 0, times)
    assert np.abs(v - wave_reference(1.0, K, times)).max() < 1e-11


def test_workload_inputs_follow_the_seed():
    a, b, c = (workloads.WORKLOADS["wave_dense"](s).config for s in (1, 1, 2))
    assert a == b and a != c and a["seed"] == 1
    amp = float(c["initial"][0].split("*")[0])
    assert abs(amp - 1.0) <= workloads.AMPLITUDE_BAND
