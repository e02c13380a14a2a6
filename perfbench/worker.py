"""Closed-loop worker: one process that calls ``weakhyp.cli.main`` on request.

Usage (started by run.py, not by hand):
    python3 perfbench/worker.py SRC_DIR [TRACE_FILE]

Protocol, one JSON object per line.  stdin carries
``{"iteration": i, "traced": bool, "invocations": [[arg, ...], ...]}`` or
``{"quit": true}``; the reply on stdout is the exit codes and timings of that
iteration, and on quit the process's peak resident memory.  Anything weakhyp
prints goes to stderr.  With TRACE_FILE, iterations marked traced run under
the tracer and the spans are written to TRACE_FILE on quit.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _peak_rss_mb() -> float:
    """VmHWM of this process image (ru_maxrss would also count the pre-exec parent)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _invoke(main, argv: list[str]) -> int:
    try:
        return int(main(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed invocation, not the end of the run
        traceback.print_exc()
        return -1


def serve(src: str, trace_file: str | None) -> None:
    sys.path.insert(0, src)
    import weakhyp.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"weakhyp imported from {cli.__file__}, not from {src}")
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    tracer = None
    if trace_file:
        from tracing import Tracer

        tracer = Tracer()
    proto.write(json.dumps({"ready": True}) + "\n")
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        traced = tracer is not None and request["traced"]
        if traced:
            tracer.iteration = request["iteration"]
            tracer.install()
        codes, walls = [], []
        cpu0 = _cpu_s()
        try:
            for argv in request["invocations"]:
                start = perf_counter()
                codes.append(_invoke(cli.main, argv))
                walls.append(perf_counter() - start)
        finally:
            if traced:
                tracer.uninstall()
        proto.write(json.dumps({"codes": codes, "walls": walls, "cpu_s": _cpu_s() - cpu0}) + "\n")
    if tracer is not None:
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    proto.write(json.dumps({"peak_rss_mb": _peak_rss_mb()}) + "\n")


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None)
