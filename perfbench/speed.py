"""The host's speed, sampled while an op runs, and op times corrected by it.

The benchmark runs on a share of a busy host whose speed swings by up to
about 2x within seconds and stays slow or fast for minutes.  A raw op time
mixes the op's own cost with the speed of the stretch it happened to run
in, so two runs of the same code can differ by more than any bound worth
having.  This module measures that speed and divides it out.

``Meter.time(fn)`` runs ``fn`` with a SIGALRM every ``PERIOD_S`` whose
handler times one call of ``reference()``, a fixed pure-Python loop that
does not touch clustercx, in the same thread and on the same CPU as the op.
One more sample is taken just before and one just after the op.  The op's
corrected time is

    (op wall time - time spent in the handler) * mean(REFERENCE_S / sample)

that is, its seconds at the speed where ``reference()`` takes
``REFERENCE_S``, its time when called back to back on a quiet moment of
the 2-vCPU host of ``baseline.json``.  A call between stretches of other
work runs slower than that, so corrected times read below raw ones even
on a quiet host: ``REFERENCE_S`` only fixes the scale.  Averaging the
sampled speeds weights each stretch of the op by its length, so a stretch
that ran at half speed counts its seconds half.

A change to clustercx leaves ``reference()`` alone, so it moves the
corrected time as much as the raw time, with one caveat: a sample finds
the caches as the op left them, and on that host a loop that streams
through a large heap made the next reference() call about 13% slower.
So a change that shrinks an op's working set can read a few percent
smaller than it is; the raw times stay in each run's context line.

While other threads run (``--jobs 2``) the handler would wait for the GIL
and read the wrong speed, so it skips; that op is corrected by the samples
just before and after it.
"""

import gc
import signal
import threading
import time

PERIOD_S = 0.02
REFERENCE_S = 0.0003


def reference():
    """Tuples, frozensets, dict updates and a sort: the kind of work the
    combinatorics in clustercx does, on a working set that stays in cache."""
    seen = {}
    acc = 0
    for i in range(400):
        key = (i % 7, (i * 3) % 11, i % 5)
        members = frozenset(key)
        seen[key] = seen.get(key, 0) + len(members)
        acc += hash(members) & 3
    return acc + len(sorted(seen.items(), key=lambda kv: kv[1]))


class Meter:
    def __init__(self):
        self.speeds = []
        self.spent = 0.0
        self.raw_s = self.corrected_s = 0.0
        self._t0 = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def sample(self):
        """Time one reference() call; keep its speed; return its seconds.
        The collector is held off, so the size of the op's heap does not
        change the reference's time."""
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.speeds.append(REFERENCE_S / dt)
        return dt

    def _tick(self, signum, frame):
        if threading.active_count() == 1:
            self.spent += self.sample()

    def start(self):
        self.speeds = []
        self.spent = 0.0
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()

    def stop(self):
        """Set ``raw_s`` to the wall time since start() and
        ``corrected_s`` to it corrected for the speed sampled meanwhile."""
        self.raw_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        work = self.raw_s - self.spent
        self.sample()
        self.corrected_s = work * self.speed()

    def speed(self):
        """Mean sampled speed, 1.0 at the reference speed."""
        return sum(self.speeds) / len(self.speeds)

    def time(self, fn):
        """Return ``fn()``, leaving its wall time in ``raw_s`` and its
        corrected time in ``corrected_s``, also when it raises."""
        self.start()
        try:
            return fn()
        finally:
            self.stop()
