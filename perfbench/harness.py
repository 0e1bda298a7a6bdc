"""Closed-loop runner shared by the workloads.

A workload is a list of passes; a pass is a list of `Op`s with the same
composition of operation kinds every time.  One client runs the ops one
after another: the next starts when the previous one returns.  Only the
call into `qgamma` is timed; its check against the reference table runs
afterwards, outside the timing.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import reference as ref


@dataclass
class Op:
    kind: str                               # operation kind, fixed per pass
    call: Callable[[], object]              # the timed call into qgamma
    check: Callable[[object, "Checker"], None]


class Checker:
    """Collects the verdicts of one op's checks.

    A check that can fail through a documented defect names it in `defect`;
    its failure still fails the op, but is reported under that name rather
    than as unexpected.
    """

    def __init__(self):
        self.failures = []      # (message, defect or None)
        self.margins = []       # min(correct, requested) - gate, per check

    def expect(self, ok, what: str, defect: str | None = None):
        if not ok:
            self.failures.append((what, defect))

    def equal(self, got, want, what: str, defect: str | None = None):
        if got != want:
            self.failures.append((f"{what}: got {got!r}, want {want!r}",
                                  defect))

    def digits(self, what: str, approx, exact, requested: float, gate: float,
               absolute: bool = False, defect: str | None = None):
        """Numeric check: `approx` must carry `gate` correct digits.

        Correct digits are capped at `requested`, the precision the caller
        asked for, before the margin over the gate is recorded.
        """
        ctx = ref.context(int(requested) + 30)
        if absolute:
            err = abs(ctx.convert(approx) - ctx.convert(exact))
            got = float("inf") if err == 0 else float(-ctx.log10(err))
        else:
            got = ref.correct_digits(approx, exact, ctx)
        if got < gate:
            self.failures.append(
                (f"{what}: {got:.2f} correct digits, gate {gate:g}", defect))
        else:
            self.margins.append(min(got, requested) - gate)


@dataclass
class Result:
    kinds: list = field(default_factory=list)        # kind per op, in order
    times: list = field(default_factory=list)        # op wall times, s
    traced: list = field(default_factory=list)       # whether, per op
    passes: int = 0                                  # after the warm-up
    warmup_ops: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)   # failures not known
    known: dict = field(default_factory=dict)        # defect -> ops
    margins: list = field(default_factory=list)
    spans: list = field(default_factory=list)        # (start, end) per op
    speed: list = field(default_factory=list)        # (time, speed factor)
    per_pass: dict = field(default_factory=dict)     # kind -> count per pass


def run(passes, seconds: float, kernels, tracer=None,
        min_ops: int = 0) -> Result:
    """Run passes in a closed loop for about `seconds`.

    At least two passes and `min_ops` operations run.  Another pass starts
    only while it is expected to end no later than half a pass after the
    deadline, or while fewer than `min_ops` operations have run.  `kernels`
    name the speed kernels timed around and during each op.

    With a `tracer`, no speed samples are taken, and pass 0 is an untraced
    warm-up that fills the package's caches: its ops are checked but not
    counted in `passes` or compared.  After it every other op of each kind
    is traced, and an even number of passes runs, so the traced and the
    untraced ops each make up whole passes, interleaved op by op on the
    same machine.
    """
    res = Result(per_pass=Counter(op.kind for op in passes[0]))
    warmup = 0
    if tracer is not None:
        kernels = ()
        warmup = 1
    seen = Counter()
    start = time.perf_counter()
    i = 0
    while True:
        for op in passes[i % len(passes)]:
            traced = False
            if tracer is not None and i >= warmup:
                traced = seen[op.kind] % 2 == 1
                seen[op.kind] += 1
            _run_op(op, res, tracer if traced else None, kernels)
            res.traced.append(traced)
        if kernels:
            res.speed.append(speed_sample(kernels))
        i += 1
        if i == warmup:
            res.warmup_ops = len(res.times)
        res.passes = i - warmup
        elapsed = time.perf_counter() - start
        if res.passes >= 2 and res.passes % (1 + warmup) == 0 \
                and res.attempted >= min_ops \
                and elapsed + 0.5 * elapsed / i > seconds:
            return res


def _run_op(op: Op, res: Result, tracer, kernels):
    res.attempted += 1
    error = None
    if kernels:
        res.speed.append(speed_sample(kernels))
        sampler = _Sampler(res.speed, kernels)
    else:
        sampler = _NoSampler()
    if tracer is not None:
        tracer.install()
        tracer.active = True
        tracer.enter("bench.op")
    t0 = time.perf_counter()
    try:
        with sampler:
            out = op.call()
    except Exception as e:      # a raising op is a failed op, not a crash
        error = f"{type(e).__name__}: {e}"
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.exit()
            tracer.active = False
            tracer.uninstall()
    res.kinds.append(op.kind)
    res.times.append(t1 - t0 - sampler.spent)
    res.spans.append((t0, t1))

    # checks run untraced so that reference work never shows in a layer
    c0 = time.perf_counter()
    checker = Checker()
    if error is None:
        try:
            op.check(out, checker)
        except Exception as e:
            checker.failures.append(
                (f"check raised {type(e).__name__}: {e}", None))
    else:
        checker.failures.append((error, None))
    if tracer is not None:
        tracer.calls["bench.check"] += 1
        tracer.self_s["bench.check"] += time.perf_counter() - c0

    res.margins.extend(checker.margins)
    if not checker.failures:
        return
    res.failed += 1
    unknown = [msg for msg, defect in checker.failures if defect is None]
    if unknown:
        res.unexpected.append((op.kind, unknown))
    else:
        defect = checker.failures[0][1]
        res.known[defect] = res.known.get(defect, 0) + 1


def scaled_times(res: Result) -> list:
    """Each op's time times the mean speed factor measured from 0.5 s
    before its start to 0.5 s after its end (including during it)."""
    out = []
    stamps = [t for t, _ in res.speed]
    for (t0, t1), t in zip(res.spans, res.times):
        lo = bisect.bisect_left(stamps, t0 - 0.5)
        hi = bisect.bisect_right(stamps, t1 + 0.5)
        out.append(t * statistics.fmean(f for _, f in res.speed[lo:hi]))
    return out


def end_to_end(res: Result) -> dict:
    """wall_s, op_p50_s, op_p95_s and digits_margin_min of an untraced run.

    Times are in reference-speed seconds (see `speed_sample`).  wall_s is
    the time of one pass, estimated as the sum over operation kinds of
    (ops of that kind per pass) x (median time of the kind), so a single
    slow op moves it less than it would move a pass total.
    """
    times = scaled_times(res)
    by_kind = _by_kind(res.kinds, times)
    p95 = statistics.quantiles(times, n=20)[18]
    return {
        "wall_s": _pass_time(by_kind, res.per_pass),
        "op_p50_s": statistics.median(times),
        "op_p95_s": p95,
        "beyond_p95": sum(t > p95 for t in times),
        "digits_margin_min": min(res.margins),
        "raw_wall_s": _pass_time(_by_kind(res.kinds, res.times),
                                 res.per_pass),
        "speed_factor": statistics.median(f for _, f in res.speed),
        "kinds": {k: (len(v), statistics.median(v))
                  for k, v in by_kind.items()},
    }


def _by_kind(kinds, times) -> dict:
    out = {}
    for kind, t in zip(kinds, times):
        out.setdefault(kind, []).append(t)
    return out


def _pass_time(by_kind, per_pass) -> float:
    return sum(n * statistics.median(by_kind[k]) for k, n in per_pass.items())


# ---------------------------------------------------------------------------
# machine speed
#
# The benchmark shares its machine with other work.  On a shared 2-core
# Xeon the same 0.56 s operation took from 0.37 to 0.67 s within one minute,
# and its CPU time moved with its wall time.  So fixed kernels that use no
# qgamma code are timed before every operation and every 0.2 s during it:
# integer bytecode, Fraction and dict arithmetic on tuple keys (the shape of
# Laurent powering), and building an mpmath context followed by mpf/mpc
# arithmetic at 50 digits.  Each workload names the kernels that resemble
# its own arithmetic.  The speed factor is the geometric mean of (reference
# time / measured time) over them.  An operation's reported time is its
# wall time, less the time spent sampling, times the mean factor measured
# around and during it: seconds on a machine that runs the kernels in their
# reference times.  The samples during an operation come from a SIGALRM
# interval timer in the one thread there is.  The raw times are reported
# beside the scaled ones.

SAMPLE_EVERY = 0.2      # seconds between speed samples during an operation


class _Sampler:
    """Takes speed samples every SAMPLE_EVERY seconds while active."""

    def __init__(self, speed, kernels):
        self.speed = speed
        self.kernels = kernels
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.speed.append(speed_sample(self.kernels))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


class _NoSampler:
    spent = 0.0

    def __enter__(self):
        pass

    def __exit__(self, *exc):
        return False

_KERNEL_TERMS = {(i, j): Fraction(i + 1, j + 5)
                 for i in range(-2, 2) for j in range(-2, 2)}


def _kernel_int():
    s = 0
    for i in range(6000):
        s = (s * 31 + i) & 0xFFFFFFFF
    return s


def _kernel_fraction():
    out = {}
    for e1, c1 in _KERNEL_TERMS.items():
        for e2, c2 in _KERNEL_TERMS.items():
            k = (e1[0] + e2[0], e1[1] + e2[1])
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _kernel_mpf():
    ctx = ref.context(50)
    x, y = ctx.mpf(1), ctx.mpc(1, 1)
    for k in range(100):
        x = x * (k + 2) / 3 + ctx.mpf(1) / (k + 1)
        y = y * x
    return y


KERNELS = {"int": (_kernel_int, 0.85e-3),
           "fraction": (_kernel_fraction, 1.0e-3),
           "mpf": (_kernel_mpf, 1.7e-3)}     # reference seconds fix the unit


def speed_sample(kernels):
    """(time stamp, speed factor) from one timing of the named kernels.

    The garbage collector is off while they run, so a collection of the
    benchmark's or the package's heap never lands in a kernel's time.
    """
    factor = 1.0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in kernels:
            kernel, ref_s = KERNELS[name]
            t0 = time.perf_counter()
            kernel()
            factor *= ref_s / (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return time.perf_counter(), factor ** (1 / len(kernels))
