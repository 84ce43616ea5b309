"""One command-line session run, as a user runs it: ``jetsigma all --json``
on one session file in a fresh interpreter.

Usage: ``python3 session_child.py <session file> <trace 0|1> <span file>``

The report goes to standard output exactly as the command line prints it;
the exit status is the command's.  The child's own phase times (and, when
tracing, its per-layer aggregate) go to the last line of standard error,
prefixed with ``PERFBENCH``.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    path, trace, span_file = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import jetsigma.cli as cli

    phases = {"import_s": time.perf_counter() - start}
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        t = time.perf_counter()
        tracer = tracing.Tracer()
        tracer.install()
        phases["install_s"] = time.perf_counter() - t
    else:
        # time the session load, which set-up time counts, and nothing else
        load_session = cli.load_session
        load_s = []

        def timed_load(p):
            t = time.perf_counter()
            try:
                return load_session(p)
            finally:
                load_s.append(time.perf_counter() - t)

        cli.load_session = timed_load

    t = time.perf_counter()
    # the command's own --seed stays at its default 0, so every report can be
    # compared byte for byte with the stored digest
    status = cli.main(["all", "--session", path, "--json"])
    sys.stdout.flush()
    phases["main_s"] = time.perf_counter() - t

    info = {"phases": phases}
    if tracer is not None:
        t = time.perf_counter()
        tracer.uninstall()
        tracer.write(span_file)
        info["layers"] = tracer.aggregate()
        phases["write_s"] = time.perf_counter() - t
    else:
        info["load_s"] = sum(load_s)
    info["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("PERFBENCH " + json.dumps(info), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
