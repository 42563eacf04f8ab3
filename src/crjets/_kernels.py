"""Truncated product kernel.

    mul_terms(A, B, deg_shift, cap) -> dict

A and B map packed monomial codes to GaussianRational coefficients; the
result contains every product monomial of total degree <= cap, exactly,
with zero coefficients dropped.

Coefficients accumulate as raw (a, b, d) integer triples with a
least-common-multiple denominator merge, and are normalized once per
output monomial.
"""

from __future__ import annotations

from math import gcd

from .rationals import GaussianRational


def mul_terms(A: dict, B: dict, deg_shift: int, cap: int) -> dict:
    if not A or not B:
        return {}
    if len(A) > len(B):
        A, B = B, A
    bitems = sorted(B.items())
    bcodes = [c for c, _ in bitems]
    bvals = [(v.a, v.b, v.d) for _, v in bitems]
    nb = len(bcodes)
    acc: dict[int, list[int]] = {}
    for ca, va in A.items():
        budget = cap - (ca >> deg_shift)
        aa, ab, ad = va.a, va.b, va.d
        for i in range(nb):
            cb = bcodes[i]
            if (cb >> deg_shift) > budget:
                break
            ba, bb, bd = bvals[i]
            pa = aa * ba - ab * bb
            pb = aa * bb + ab * ba
            pd = ad * bd
            c = ca + cb
            cur = acc.get(c)
            if cur is None:
                acc[c] = [pa, pb, pd]
            elif cur[2] == pd:
                cur[0] += pa
                cur[1] += pb
            else:
                qd = cur[2]
                g = gcd(qd, pd)
                m_cur = pd // g
                m_new = qd // g
                cur[0] = cur[0] * m_cur + pa * m_new
                cur[1] = cur[1] * m_cur + pb * m_new
                cur[2] = qd * m_cur
    out = {}
    for c, (x, y, z) in acc.items():
        if x or y:
            out[c] = GaussianRational.normalize(x, y, z)
    return out
