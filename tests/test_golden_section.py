"""Golden-section sizing ends on every integer range, with the same probes.

``engine._golden_section`` shrinks a float bracket over ``[lo, hi]`` until
it is within ``max((hi - lo) * 1e-12, 1)``. From about 10**18 units on, a
range narrower than ~2.2e-4 * hi is a few float ulps wide: the bracket
stops shrinking above that tolerance, and the plain loop cycled through
the same states forever. The sweep below runs a copy of that loop with an
iteration cap next to the engine's, on ranges from 10**18 to 10**24 units
and spans from 1 up, and checks that both probe the same integers in the
same order: on every range where the plain loop ends, and on every range
where it cycles (where every state it revisits was already probed). A
second sweep, lo from 10**15 to 10**26, checks the resolution the engine
states: on a score peaked anywhere in the range, the best probe lies within
``max((hi - lo) * 1e-12, 1, ulp(float(hi)))`` of the peak.
"""

import math

from xdmev import engine
from xdmev.engine import _golden_section

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
CAP = 1_000  # loop iterations; far past what any ending run needs


def reference_probes(lo_u: int, hi_u: int, score) -> tuple[list[int], int]:
    """Integers the plain loop scores, in order, and how many iterations it
    ran: CAP when it had not ended by then."""
    scores, probed = {}, []

    def probe(x):
        units = min(max(round(x), lo_u), hi_u)
        if units not in scores:
            probed.append(units)
            scores[units] = score(units)
        return scores[units]

    probe(lo_u)
    probe(hi_u)
    if hi_u - lo_u <= 1:
        return probed, 0
    lo_f, hi_f = float(lo_u), float(hi_u)
    tol = max((hi_f - lo_f) * 1e-12, 1.0)
    c = hi_f - (hi_f - lo_f) * INV_PHI
    d = lo_f + (hi_f - lo_f) * INV_PHI
    fc = probe(c)
    fd = probe(d)
    for iterations in range(CAP):
        if not (hi_f - lo_f) > tol:
            return probed, iterations
        if fc is not None and (fd is None or fc > fd):
            hi_f, d, fd = d, c, fc
            c = hi_f - (hi_f - lo_f) * INV_PHI
            fc = probe(c)
        else:
            lo_f, c, fc = c, d, fd
            d = lo_f + (hi_f - lo_f) * INV_PHI
            fd = probe(d)
    return probed, CAP


def engine_probes(lo_u: int, hi_u: int, score) -> list[int]:
    probed = []

    def recording(units):
        probed.append(units)
        return score(units)

    _golden_section(lo_u, hi_u, recording, "sweep")
    return probed


def scores(lo_u: int, hi_u: int) -> dict:
    """Score shapes over ``[lo_u, hi_u]``: peaked at either end, inside, flat,
    and invalid (None) over the upper part of the range."""
    span = hi_u - lo_u
    inside = lo_u + span // 3
    return {
        "peak_lo": lambda u: -(u - lo_u),
        "peak_hi": lambda u: u - hi_u,
        "peak_inside": lambda u: -abs(u - inside),
        "flat": lambda u: 7,
        "invalid_above": lambda u: None if u > lo_u + span // 2 else u,
    }


def ranges() -> list[tuple[int, int]]:
    los = [10**k for k in range(18, 25)] + [10**18 + 7, 3 * 10**21 + 1, 999 * 10**21]
    found = set()
    for lo in los:
        spans = {1, 2, 3, 5, 17, 1_000_003} | {10**k for k in range(1, 26)}
        spans |= {int(lo * f) for f in (1e-6, 1e-5, 1e-4, 2e-4, 2.5e-4, 3e-4, 1e-3)}
        found |= {(lo, lo + span) for span in spans if 0 < span <= 10 * lo}
    return sorted(found)


def test_sweep_probes_what_the_plain_loop_probes():
    ended = cycled = 0
    longest = 0
    for lo_u, hi_u in ranges():
        for name, score in scores(lo_u, hi_u).items():
            expected, iterations = reference_probes(lo_u, hi_u, score)
            assert engine_probes(lo_u, hi_u, score) == expected, (lo_u, hi_u, name)
            if iterations == CAP:
                cycled += 1
            else:
                ended += 1
                longest = max(longest, iterations)
    # the sweep holds both kinds of range; an ending run never reaches the
    # round from which the engine watches for a repeated state
    assert ended > 500 and cycled > 100, (ended, cycled)
    assert longest <= engine._GOLDEN_ROUNDS, longest



def test_best_probe_is_within_tolerance_or_one_float_ulp_of_the_peak():
    # the float bracket gets no narrower than one ulp at hi, so the resolution
    # is max((hi - lo) * 1e-12, 1, ulp(hi)): 131,072 units at 10**21, where
    # [10**21, 10**21 + 10**14] misses a peak a third of the way in by 5,461
    checked = past_tolerance = 0
    for lo_u in (10**k for k in range(15, 27)):
        divisors = (10**10, 10**8, 10**7, 10**6, 10**4, 4_545, 10**3, 100, 10)
        for span in [lo_u // d for d in divisors] + [lo_u, 10 * lo_u]:
            hi_u = lo_u + span
            for peak in (lo_u, lo_u + span // 3, lo_u + span // 2,
                         lo_u + span * 618 // 1000, hi_u):
                probed = engine_probes(lo_u, hi_u, lambda u: -abs(u - peak))
                miss = min(abs(u - peak) for u in probed)
                tolerance = max(span * 1e-12, 1)
                assert miss <= max(tolerance, math.ulp(float(hi_u))), (lo_u, hi_u, peak, miss)
                checked += 1
                past_tolerance += miss > tolerance
    assert checked == 660 and past_tolerance > 0, (checked, past_tolerance)
