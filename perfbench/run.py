"""weakhyp benchmark: closed-loop CLI workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload weak_k128 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

One client in one worker process calls ``weakhyp.cli.main`` and sends the
next iteration (a workload's command sequence) only after the previous one
returned.  Every invocation's exit code, verdicts and accuracy are checked
against a reference that does not use weakhyp.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced iterations
and prints the per-layer metrics plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
# enough iterations that the tail sits at or above the median
MIN_ITERATIONS = 2 * stats.TAIL_BEYOND
LOOP_CAP_S = 120.0  # stop well inside the 180 s a run may take
REPLY_TIMEOUT_S = 150.0
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import weakhyp.cli as cli; "
    "cli.load_config(sys.argv[2]).problem()"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def machine_facts(out_dir: str) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    fs, best = "unknown", ""
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _, mount, fstype, *_ = line.split()
                if os.path.abspath(out_dir).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    fs, best = fstype, mount
    except OSError:
        pass
    env_keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k, "unset") for k in env_keys},
        "output_fs": f"{fs} at {best or '?'}",
    }


def setup_time(src: str, config_path: str) -> float:
    """One fresh interpreter: import weakhyp.cli, load_config, RunConfig.problem()."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, src, config_path], capture_output=True, text=True, timeout=60
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return elapsed


class Worker:
    """The worker process and its line protocol; always reaped on close()."""

    def __init__(self, src: str, trace_file: str | None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), src]
        if trace_file:
            cmd.append(trace_file)
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if not self.receive().get("ready"):
            raise BenchError("worker did not start")

    def receive(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker exited or timed out")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self.receive()

    def close(self) -> dict:
        final = self.request({"quit": True})
        self.proc.wait(timeout=30)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """Run one workload; returns the result object and the human-readable lines."""
    import yaml

    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "weakhyp", "cli.py")):
        raise BenchError(f"no weakhyp sources under {src}")
    scratch_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch_root)
    trace_file = os.path.join(scratch_root, f"trace-{name}-{seed}.json") if trace else None
    worker = None
    try:
        prepared = WORKLOADS[name](seed)
        config_path = os.path.join(work, "config.yaml")
        with open(config_path, "w", encoding="utf-8") as handle:
            yaml.safe_dump(prepared.config, handle, sort_keys=True)
        facts = machine_facts(work)
        setup: list[float] = []
        n_setup = 0 if trace else SETUP_REPEATS
        if n_setup:
            setup_time(src, config_path)  # warm-up: bytecode and file caches

        outs = [os.path.join(work, f"out{j}") for j in range(len(prepared.commands))]
        invocations = [
            [*cmd[:1], "--config", config_path, "--output", out, *cmd[1:]]
            for cmd, out in zip(prepared.commands, outs)
        ]
        worker = Worker(src, trace_file)
        attempted = failed = 0
        max_err = 0.0
        messages: list[str] = []
        walls = {False: [], True: []}
        cpu, out_bytes = [], []
        measured = 0.0
        loop_start = perf_counter()
        iteration = -1  # iteration -1 warms caches and is checked but not timed
        while True:
            traced = trace and iteration % 2 == 1
            reply = worker.request({"iteration": iteration, "traced": traced, "invocations": invocations})
            nbytes = 0
            for j, (code, out) in enumerate(zip(reply["codes"], outs)):
                outcome = prepared.verify(j, code, out)
                attempted += 1
                max_err = max(max_err, outcome.rel_err)
                if not outcome.ok:
                    failed += 1
                    messages.append(f"iteration {iteration} invocation {j}: {outcome.message}")
                if os.path.isdir(out):
                    nbytes += _dir_bytes(out)
                    shutil.rmtree(out)
            if iteration >= 0:
                wall = sum(reply["walls"])
                walls[traced].append(wall)
                measured += wall
                if not traced:
                    cpu.append(reply["cpu_s"])
                out_bytes.append(nbytes)
            iteration += 1
            # spread the set-up probes over the run, as the iterations are
            if len(setup) < n_setup and measured >= len(setup) * seconds / n_setup:
                setup.append(setup_time(src, config_path))
            enough = measured >= seconds and iteration >= MIN_ITERATIONS
            if enough or perf_counter() - loop_start > LOOP_CAP_S:
                break
        while len(setup) < n_setup:
            setup.append(setup_time(src, config_path))
        peak_rss = worker.close()["peak_rss_mb"]
        worker = None
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(work, ignore_errors=True)

    untraced = walls[False]
    if len(untraced) < (MIN_ITERATIONS // 2 if trace else MIN_ITERATIONS):
        raise BenchError(f"only {len(untraced)} iterations fit in {LOOP_CAP_S:.0f} s")
    lines = [f"facts: {json.dumps(facts, sort_keys=True)}"]
    lines += [f"check failure: {m}" for m in messages[:10]]
    lines.append(
        f"{name}: {len(untraced)} untraced iterations, failed_ratio {failed / attempted:.4g} "
        f"({failed}/{attempted} invocations)"
    )
    if trace:
        metrics = layer_metrics(trace_file, walls, cpu, out_bytes)
        lines.append(
            f"{name}: wall_s {stats.trimmed_mean(walls[True]):.4g} s traced, "
            f"{stats.trimmed_mean(walls[False]):.4g} s untraced"
        )
    else:
        tail_value, tail_pct, n = stats.tail(untraced)
        lines.append(
            f"{name}: wall_s_tail is p{tail_pct:.1f} of {n} samples; the median iteration took "
            f"{stats.median(untraced):.4g} s"
        )
        metrics = {
            "wall_s": stats.trimmed_mean(untraced),
            "wall_s_tail": tail_value,
            "setup_s": stats.median(setup),
            "peak_rss_mb": peak_rss,
            "max_rel_err": max_err,
        }
    return {"failed": failed, "attempted": attempted, "metrics": metrics, "lines": lines}


def layer_metrics(trace_file: str, walls: dict, cpu: list, out_bytes: list) -> dict:
    from tracing import layer_totals

    with open(trace_file, encoding="utf-8") as handle:
        dump = json.load(handle)
    spans = list(zip(*dump["spans"]))
    totals = layer_totals(spans, dump["counts"])
    traced_iters = sorted(totals)
    metrics: dict[str, float] = {}
    for key in {k for row in totals.values() for k in row}:
        metrics[key] = stats.median([totals[i].get(key, 0.0) for i in traced_iters])
    metrics["cli.output_bytes"] = stats.median(out_bytes)
    metrics["process.cpu_s"] = stats.median(cpu)
    metrics["trace.overhead_s"] = stats.trimmed_mean(walls[True]) - stats.trimmed_mean(walls[False])
    return metrics


def _select(metrics: dict, specs: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json names; a layer a workload never enters reads 0."""
    return {s["name"]: {"value": float(metrics.get(s["name"], 0.0)), "unit": s["unit"]} for s in specs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
            res["metrics"] = _select(res["metrics"], specs)
            for line in res.pop("lines"):
                print(line)
            for key, m in res["metrics"].items():
                print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
            results[name] = res
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload == "all":
        out["metrics"] = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    else:
        out["metrics"] = results[args.workload]["metrics"]
    print(json.dumps(out, sort_keys=False), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
