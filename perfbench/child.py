"""One benchmark pass in a fresh interpreter.

Set-up is everything from the parent's spawn up to the first timed call:
interpreter start, ``import thermaljc.cli``, seeded input generation and, for
a traced pass, installing the span wrappers.  The pass is the workload's CLI
calls in order, each in-process through ``thermaljc.cli.main`` with its
standard output captured.  After the timed region the pass hashes what each
call produced and prints one JSON line for the parent.

Usage: python3 perfbench/child.py WORKLOAD SEED OUTDIR SPAWN_TIME {run,trace,setup}
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> None:
    workload, seed, outdir, spawn_time, mode = sys.argv[1:6]
    import thermaljc
    import thermaljc.cli

    import workloads

    calls = workloads.commands(workload, int(seed), outdir)
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ready = time.monotonic()
    result = {"setup_s": ready - float(spawn_time),
              "src": os.path.dirname(thermaljc.__file__)}
    if mode == "setup":
        print(json.dumps(result))
        return

    os.makedirs(outdir, exist_ok=True)
    exit_codes, stdouts = [], []
    clock = time.perf_counter
    begin = clock()
    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            try:
                code = thermaljc.cli.main(list(call.argv))
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc()
                code = -1
        exit_codes.append(code)
        stdouts.append(captured.getvalue())
    result["pass_s"] = clock() - begin
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    digests, written, read = [], 0, 0
    for call, text in zip(calls, stdouts):
        digest = hashlib.sha256(text.encode())
        written += len(text.encode())
        if call.output is not None and os.path.exists(call.output):
            with open(call.output, "rb") as handle:
                data = handle.read()
            digest.update(data)
            written += len(data)
        if call.kind == "plot" and os.path.exists(call.spec["input"]):
            read += os.path.getsize(call.spec["input"])
        digests.append(digest.hexdigest())
    result.update(exit_codes=exit_codes, stdout=stdouts, digests=digests,
                  bytes_written=written, bytes_read=read)
    if tracer is not None:
        result["spans"] = tracer.summary()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
