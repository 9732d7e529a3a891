"""One ``scl`` call in a fresh interpreter, measured from inside.

The parent starts :func:`child_main` with the ``spawn`` method, so every
call begins with cold caches and a fresh import, as a user's ``scl scan``
does.  Only the standard library is imported at module level: the package
import is itself one of the measured figures.

The machine's speed drifts by up to 1.7 times, in phases of seconds to
minutes, and separately on each vCPU, so every child also times a fixed
reference task right before and right after the part it times, on the
CPU it runs on.  The parent scales its times by
``REFERENCE_S / ref_s``: seconds at the speed at which the reference task
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import multiprocessing
import random
import resource
import statistics
import time
from multiprocessing import resource_tracker

#: a call that has not answered after this long is abandoned as failed
CALL_TIMEOUT_S = 150.0
#: the reference task's median time on the reference machine (README)
REFERENCE_S = 0.016
REFERENCE_REPS = 5


def _reference_task() -> int:
    """Fixed pure-Python work like the program's inner loops: adjacency sets
    of a seeded 24-vertex graph, a clique enumeration over them, a sort."""
    rng = random.Random(12345)
    n = 24
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                adj[u].add(v)
                adj[v].add(u)
    count = 0
    stack = [set(range(n))] * 7
    while stack:
        cand = stack.pop()
        for v in sorted(cand):
            count += 1
            stack.append(cand & {w for w in adj[v] if w > v})
    return count + len(sorted(rng.random() for _ in range(20000)))


def reference_s() -> float:
    """Median time of REFERENCE_REPS runs of the reference task, with the
    garbage collector off so that the heap around it does not count."""
    gc.disable()
    try:
        times = []
        for _ in range(REFERENCE_REPS):
            started = time.perf_counter()
            _reference_task()
            times.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(times)


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def child_main(conn, argv: list[str] | None, trace: bool) -> None:
    """Import the package, run ``scl argv`` in-process with stdout captured,
    and send the measurements back through ``conn``.  With ``argv`` None
    only the import is timed.  The reference task is timed right before
    and right after the timed part."""
    if argv is None:
        ref_before = reference_s()
        started = time.perf_counter()
        import spectral_cliques.cli  # noqa: F401
        import_s = time.perf_counter() - started
        conn.send({"import_s": import_s, "ref_s": (ref_before + reference_s()) / 2})
        conn.close()
        return
    from spectral_cliques import cli
    ref_before = reference_s()
    tracer = None
    if trace:
        from tracer import LayerTracer
        tracer = LayerTracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    wall_s = time.perf_counter() - started
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.uninstall()
    ref_s = (ref_before + reference_s()) / 2
    result = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": wall_s,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(kids1) - _cpu_s(kids0),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "ref_s": ref_s,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    conn.send(result)
    conn.close()


def run_call(argv: list[str] | None, trace: bool = False) -> dict:
    """Run one measured ``scl`` call (or, with ``argv`` None, only the
    package import) in a spawned child and wait for it."""
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=child_main, args=(send, argv, trace))
    proc.start()
    send.close()
    try:
        if not recv.poll(CALL_TIMEOUT_S):
            raise RuntimeError(f"scl call did not answer within {CALL_TIMEOUT_S:.0f}s")
        result = recv.recv()
    except EOFError:
        raise RuntimeError("scl call ended without a result") from None
    finally:
        recv.close()
        proc.join(10.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    return result


def stop_resource_tracker() -> None:
    """End and reap the resource-tracker process that starting ``spawn``
    children launched, instead of leaving it to exit after this one.
    (``_stop`` is private; where it is missing the tracker still exits on
    its own once this process has ended.)"""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
