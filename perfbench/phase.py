"""One timed phase in a process of its own: ``skelgest.cli.main(argv)``.

Usage: python3 phase.py SRC RESULT_JSON SPANS_JSONL|- -- CLI_ARGS...

Imports skelgest from SRC, runs the command once and writes wall time, CPU
time (user + system of this process, all its threads and any children it
waited for), peak RSS and the exit code to RESULT_JSON.  With a SPANS_JSONL
path the command runs traced: the layer totals go into RESULT_JSON and the
spans into SPANS_JSONL.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    src, result_path, spans_path = argv[0], Path(argv[1]), argv[2]
    if argv[3] != "--":
        raise SystemExit("usage: phase.py SRC RESULT SPANS|- -- CLI_ARGS...")
    cli_args = argv[4:]
    sys.path.insert(0, src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from skelgest import cli
    import blas

    tracer = None
    if spans_path != "-":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    stdout = io.StringIO()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(cli_args)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    result = {
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas.threads_in_effect(),
        "stdout": stdout.getvalue(),
    }
    if tracer is not None:
        tracer.restore()
        tracer.dump(Path(spans_path))
        result["layers"] = tracing.phase_metrics(tracer)
        result["top_level_s"] = tracer.top_level_seconds()
        result["fit_losses"] = tracer.fit_losses()
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
