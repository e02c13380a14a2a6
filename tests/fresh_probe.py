"""Run the CLI in a fresh interpreter and report what the process loaded.

pytest and hypothesis import hashlib (and with it OpenSSL) themselves, so
what a command loads shows only in a process of its own.  numpy 1.x imports
numpy.random (and with it hashlib) on ``import numpy``, so the modules
reported are those beyond a bare ``import numpy`` in the same process.

Run as a script, it prints the exit code and peak resident set size of one
CLI run in a fresh interpreter:

    PYTHONPATH=src python tests/fresh_probe.py symmetrizer --config run.yaml --output out
"""

import json
import subprocess
import sys
from pathlib import Path

import weakhyp

SRC = str(Path(weakhyp.__file__).resolve().parents[1])

_PROBE = """\
import json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy
bare = set(sys.modules)
from weakhyp.cli import main
code = main(sys.argv[2:])
hwm = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        hwm = next((int(line.split()[1]) for line in status if line.startswith("VmHWM:")), None)
print(json.dumps([code, sorted(set(sys.modules) - bare), hwm]))
"""


def run_fresh(argv: list[str]) -> tuple[int, set[str], int | None]:
    """``weakhyp.cli.main(argv)`` in a fresh interpreter.

    Returns the exit code, the modules loaded beyond a bare ``import numpy``,
    and the process's peak resident set size (VmHWM) in kB, or None where
    /proc/self/status does not exist.  The RSS depends on the host, so tests
    assert on the modules only.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, SRC, *argv], capture_output=True, text=True, check=True
    )
    code, modules, hwm = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules), hwm


if __name__ == "__main__":
    code, _, hwm = run_fresh(sys.argv[1:])
    print(f"exit {code}  VmHWM " + ("n/a" if hwm is None else f"{hwm} kB ({hwm / 1024:.2f} MB)"))
