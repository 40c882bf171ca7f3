"""Run one ``tensortopics`` command in a child process and print its wall seconds, its exit
code, its peak RSS and the floor under that peak.  Run from anywhere::

    python tools/cli_peak.py fit --data runs/demo.counts.txt --ranks 2,2,3 --out runs/demoF

The child runs ``python -m tensortopics.cli`` from this checkout's ``src``, with this
process's standard streams.  Once it exits, four lines follow on stdout::

    wall_s 0.412
    exit 0
    peak_mb 58.3
    floor_mb 9.6

On Linux a child's ``ru_maxrss`` carries over the RSS of the process that started it, so
its peak reads no lower than ``floor_mb``, this launcher's own peak RSS (``VmHWM``) when the
child starts.  The launcher imports only the standard library to keep that floor low.  Its
own ``ru_maxrss`` would not do for the floor: that carries over the RSS of whatever started
the launcher.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _mb(kilobytes):
    return kilobytes * 1024 / 1e6  # Linux gives ru_maxrss and VmHWM in KiB


def _own_peak_kb():
    """This process's peak RSS in KiB, from its ``VmHWM`` line."""
    status = Path("/proc/self/status").read_text()
    return int(next(line for line in status.splitlines() if line.startswith("VmHWM:")).split()[1])


def run(argv):
    """Run ``tensortopics argv``; return ``(wall seconds, exit code, peak MB, floor MB)``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    floor = _mb(_own_peak_kb())
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "tensortopics.cli", *argv],
                             env={**os.environ, "PYTHONPATH": path})
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, child.returncode, _mb(usage.ru_maxrss), floor


def main(argv=None):
    wall, code, peak, floor = run(sys.argv[1:] if argv is None else argv)
    print(f"wall_s {wall:.3f}\nexit {code}\npeak_mb {peak:.1f}\nfloor_mb {floor:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
