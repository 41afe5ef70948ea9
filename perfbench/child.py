"""One CLI invocation of the benchmark, in a process of its own.

Usage: ``python3 child.py STATS_PATH TRACE -- CLI_ARGS...``

Imports ``sensorgrad.cli``, runs ``sensorgrad.cli.main(CLI_ARGS)`` once and
writes a marshal file to STATS_PATH with the CLI's exit code, the
process's peak RSS and CPU time, ``CLOCK_MONOTONIC`` readings taken when
the import finished and when ``main`` returned, and with TRACE=1 the spans
of a traced run and the offset from their ``perf_counter`` clock to
``CLOCK_MONOTONIC``.  ``CLOCK_MONOTONIC`` is one clock for every process
on the host, so the parent compares these readings with its own from
before the spawn and after the exit.  The child's exit code is the CLI's.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)
STARTED_PERF = time.perf_counter()

import marshal  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    stats_path, trace, separator, *argv = sys.argv[1:]
    if separator != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py STATS_PATH 0|1 -- CLI_ARGS...")
    tracer = None
    if trace == "1":
        import threading

        from spans import Tracer

        tracer = Tracer()
    import sensorgrad.cli

    imported = _monotonic()
    if tracer is None:
        code = sensorgrad.cli.main(argv)
    else:
        tracer.spans.append(
            ("cli.import", threading.get_native_id(), STARTED_PERF,
             time.perf_counter(), 1, False)
        )
        tracer.install()
        code = tracer.span("cli", sensorgrad.cli.main, argv)
    finished = _monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats = {
        "perf_offset": STARTED - STARTED_PERF,
        "imported": imported,
        "finished": finished,
        "code": code,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "spans": [] if tracer is None else tracer.spans,
        "regions": [] if tracer is None else tracer.regions,
    }
    with open(stats_path, "wb") as handle:
        marshal.dump(stats, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
