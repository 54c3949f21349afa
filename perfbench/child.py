"""Run one ``driftcast`` command in this process and record how it went.

Usage::

    python3 perfbench/child.py RESULT.json TRACE(0|1) [driftcast args...]
    python3 perfbench/child.py RESULT.json notes

The first form imports ``driftcast.cli`` (timed), optionally installs the
tracing wrappers from ``spans.py``, calls ``main(argv)``, times a fixed
calibration task, and writes the exit code, import time, peak RSS, CPU
time, calibration time and any spans to RESULT.json, then exits with the
command's code. The second form writes machine notes
(numpy, BLAS library and BLAS thread count as this process sees them).
The parent sets ``PYTHONPATH`` so that ``driftcast`` is the checkout's
own ``src/driftcast``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _blas_threads():
    """BLAS thread count from the OpenBLAS that numpy loaded, if reachable."""
    import ctypes
    import glob
    import os

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def notes() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": _blas_threads()}


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that runs no
    driftcast code: how fast the host runs at the time of the command."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i % 7
    x = np.arange(400_000, dtype=np.float64)
    for _ in range(50):
        x = np.sqrt(x * 1.000001 + 1.0)
    return time.perf_counter() - t0


def run(argv: list[str], trace: bool) -> tuple[int, dict]:
    t0 = time.perf_counter()
    import driftcast.cli as cli
    record = {"import_s": time.perf_counter() - t0,
              "driftcast_file": cli.__file__, "spans": [], "counters": {}}
    entry = cli.main
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        entry = recorder.wrap(cli.main, "cli.main")
    code = 1
    try:
        code = entry(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash still counts as a failed command with a record
        traceback.print_exc()
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record.update(code=code, maxrss_kb=usage.ru_maxrss,
                      cpu_s=usage.ru_utime + usage.ru_stime)
        if recorder is not None:
            record.update(spans=recorder.spans, counters=recorder.counters)
    record["cal_s"] = calibrate()
    return code, record


def main() -> int:
    out, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "notes":
        code, record = 0, notes()
    else:
        code, record = run(argv, trace=mode == "1")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
