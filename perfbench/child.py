"""One measured ``hrsync`` CLI call, run by ``run.py`` as a fresh process.

    python3 child.py RESULT.json probe
    python3 child.py RESULT.json run WORKLOAD TRACE_DIR|- ARGV...

``probe`` only imports ``hrsync.cli`` (the set-up every CLI call pays).
``run`` also calls ``hrsync.cli.main(ARGV)`` in the current directory and
records its wall time, the CPU time of this process plus its reaped pool
workers, and the peak resident memory of either. With a trace directory the
call runs under :mod:`spans` wrappers. The process exits with ``main``'s
return code after writing RESULT.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def own_peak_kb(usage) -> int:
    """Peak resident memory of this process image, in KiB.

    ``ru_maxrss`` of a process started by exec also holds the peak of the
    process that started it (here ``run.py``), so the kernel's
    high-water mark of the current address space is read instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss


def main() -> int:
    result_path, mode, *rest = sys.argv[1:]
    t0 = time.perf_counter()
    import hrsync.cli

    result = {"setup_s": time.perf_counter() - t0}
    code = 0
    if mode == "run":
        workload, trace_dir, *argv = rest
        entry = hrsync.cli.main
        tracer = restore = None
        if trace_dir != "-":
            import spans

            tracer = spans.Tracer(workload, os.path.basename(trace_dir), trace_dir)
            restore, result["absent"] = spans.install(tracer)
            entry = tracer.wrap("cli.main", entry)

        self0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        code = entry(argv)
        wall = time.perf_counter() - w0
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)

        result["wall_s"] = wall
        result["cpu_s"] = (
            self1.ru_utime - self0.ru_utime + self1.ru_stime - self0.ru_stime
            + kids.ru_utime + kids.ru_stime
        )
        result["peak_rss_mb"] = max(own_peak_kb(self1), kids.ru_maxrss) / 1024.0
        result["pool_size"] = os.cpu_count() or 1
        if tracer is not None:
            spans.uninstall(restore)
            tracer.flush()
            result["wrapper_ns"] = spans.wrapper_cost_ns()
    else:
        import numpy

        result["numpy"] = numpy.__version__
        result["python"] = sys.version.split()[0]

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
