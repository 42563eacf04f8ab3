"""Host-speed reference for the benchmark's timings.

The benchmark runs on virtual machines whose host slows every process
on it by up to 1.6x for seconds to minutes at a time, with CPU time
rising in step with wall time (contention for the core and its caches,
not descheduling). No statistic inside one run removes a slowdown that
outlasts the run, so the run also times a fixed reference task between
its operations and scales its timings to a host on which that task takes
``REFERENCE_MS``.

The reference task is a truncated product of two sparse polynomials
with exact Gaussian-rational coefficients, held as raw integer triples
and normalized by gcd: the same kind of work (dict probes, small and
medium integers, gcd) as the package's own product kernel, but written
here, so that no change to the package can move it.
"""

from __future__ import annotations

import random
import statistics
import time
from math import gcd

# About the median wall time of one ``reference()`` call, in ms, on a
# 2-vCPU Intel Xeon (2.0 GHz) virtual machine with Python 3.11. Scaled
# timings read as if the host always ran at that speed.
REFERENCE_MS = 10.0
# Operation time between two reference calls: about 5 % of a run goes to
# reference calls, and a slowdown is seen within a fraction of a second.
REFERENCE_EVERY_S = 0.15

_SHIFT = 6  # bits per exponent in a packed monomial code
_VARS = 4
_CAP = 10  # total-degree truncation


def _operands() -> tuple[dict, dict]:
    rng = random.Random("perfbench-reference")

    def poly(order: int, span: int) -> dict:
        terms = {}
        for _ in range(140):
            exps = [0] * _VARS
            for _ in range(rng.randint(1, order)):
                exps[rng.randrange(_VARS)] += 1
            code = sum(e << (_SHIFT * (k + 1)) for k, e in enumerate(exps)) | sum(exps)
            terms[code] = (
                rng.randint(-span, span),
                rng.randint(-span, span),
                rng.randint(1, span),
            )
        return terms

    return poly(6, 9), poly(6, 2**20)


_A, _B = _operands()


def reference() -> int:
    """The fixed task; returns a checksum so that the work is not skipped."""
    bitems = sorted(_B.items(), key=lambda kv: kv[0] & 63)
    acc: dict[int, list[int]] = {}
    for ca, (aa, ab, ad) in _A.items():
        budget = _CAP - (ca & 63)
        for cb, (ba, bb, bd) in bitems:
            if (cb & 63) > budget:
                break
            pa = aa * ba - ab * bb
            pb = aa * bb + ab * ba
            pd = ad * bd
            c = ca + cb
            cur = acc.get(c)
            if cur is None:
                acc[c] = [pa, pb, pd]
            else:
                qd = cur[2]
                g = gcd(qd, pd)
                cur[0] = cur[0] * (pd // g) + pa * (qd // g)
                cur[1] = cur[1] * (pd // g) + pb * (qd // g)
                cur[2] = qd * (pd // g)
    check = 0
    for c, (x, y, d) in acc.items():
        g = gcd(gcd(x, y), d)
        check ^= c + (d // g).bit_length()
    return check


def sample() -> float:
    """Wall seconds of one reference call made now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def slowdown(reference_s: float) -> float:
    """How much slower than the fixed-speed host a reference time shows."""
    return reference_s / (REFERENCE_MS / 1000)


class ScaledClock:
    """Collects timings, each scaled by reference calls made around it.

    A reference call is made at the start and then whenever
    ``REFERENCE_EVERY_S`` seconds of timings have been added since the
    last one; each timing is divided by the mean of the reference calls
    just before and just after it, relative to ``REFERENCE_MS``. The
    reference calls fall between the timed operations, never inside one.
    """

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.references: list[float] = [sample()]
        self._pending: list[float] = []

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._pending.append(seconds)
        if sum(self._pending) >= REFERENCE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        before = self.references[-1]
        self.references.append(sample())
        factor = slowdown((before + self.references[-1]) / 2)
        self.scaled.extend(t / factor for t in self._pending)
        self._pending = []

    def host_speed(self) -> float:
        """Reference speed over the run: REFERENCE_MS / median reference call."""
        return REFERENCE_MS / 1000 / statistics.median(self.references)
