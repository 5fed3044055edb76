"""Run one `stackycoh` CLI invocation in a child forked from a cold parent.

The parent imports `stackycoh.cli` once and never calls into the package,
so each child starts with every package cache empty, as a fresh CLI
process does, but without paying interpreter start-up and import again.
The child times `main(argv)` alone and sends its result back through a
pipe; fork and pipe overhead are outside the timed region.

Around each timed call the child also times `calibrate`, a fixed loop of
exact arithmetic that does not use the package. On a machine shared with
other jobs the speed can drift by a fifth from minute to minute; the ratio
of an operation's time to the adjacent calibration time drifts far less.
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import stackycoh.cli
from stackycoh.catalog import catalog_fan
from stackycoh.homology import delta_fast_lowdim, delta_set
from stackycoh.picard import pic_structure

# Caches that a warm parent would fill first; a non-empty one in a fresh
# child means the benchmark would silently measure warm-cache calls.
COLD_CACHES = {
    "delta_set": delta_set,
    "delta_fast_lowdim": delta_fast_lowdim,
    "pic_structure": pic_structure,
    "catalog_fan": catalog_fan,
}


CALIBRATION_ROUNDS = 3


def calibrate() -> float:
    """Fastest of a few runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        start = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 400):
            total += Fraction(i, i + 1)
            seen[(i, i % 7)] = total
        best = min(best, time.perf_counter() - start)
    return best


class ChildError(Exception):
    """The child raised, timed out or died before sending a result."""


@dataclass
class OpResult:
    """Outcome of one invocation: exit code, timed seconds and output."""

    exit_code: Optional[int]
    seconds: float
    stdout: str
    stderr: str
    maxrss_kb: int
    calibration: float = 0.0
    error: Optional[str] = None
    trace: Any = None


def call_in_child(fn: Callable[[], Any], timeout: float) -> tuple[Any, int]:
    """Run fn in a forked child; return its pickled result and peak RSS in KiB.

    Raises ChildError with the child's traceback when fn raises, and when
    the child does not answer within `timeout` seconds (it is killed).
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(rfd)
            try:
                payload = (True, fn())
            except BaseException:
                payload = (False, traceback.format_exc())
            data = pickle.dumps(payload)
            with os.fdopen(wfd, "wb") as out:
                out.write(data)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([rfd], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status, usage = os.wait4(pid, 0)
    if timed_out:
        raise ChildError(f"no result within {timeout:.0f} s")
    if not chunks:
        raise ChildError(f"child ended with wait status {status} and no result")
    ok, value = pickle.loads(b"".join(chunks))
    if not ok:
        raise ChildError(value)
    return value, usage.ru_maxrss


def _invoke(argv: list[str], tracer_factory) -> dict:
    warm = [name for name, fn in COLD_CACHES.items() if fn.cache_info().currsize]
    if warm:
        raise ChildError(f"caches not empty before main: {', '.join(warm)}")
    tracer = tracer_factory() if tracer_factory is not None else None
    main = stackycoh.cli.main  # looked up after the tracer replaced it
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        before = calibrate()
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors exit this way
            code = exc.code
        seconds = time.perf_counter() - start
        after = calibrate()
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    return {
        "exit_code": code,
        "seconds": seconds,
        "calibration": (before + after) / 2,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace": tracer.collect() if tracer is not None else None,
    }


def run_op(argv: list[str], timeout: float, tracer_factory=None) -> OpResult:
    """One cold CLI invocation; failures are recorded, never raised.

    With a tracer factory, the child installs the tracer before calling
    main and sends back its spans and counters.
    """
    try:
        res, rss = call_in_child(lambda: _invoke(argv, tracer_factory), timeout)
    except ChildError as exc:
        return OpResult(None, 0.0, "", "", 0, error=str(exc))
    return OpResult(
        res["exit_code"],
        res["seconds"],
        res["stdout"],
        res["stderr"],
        rss,
        res["calibration"],
        trace=res["trace"],
    )
