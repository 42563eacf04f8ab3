"""Truncated product kernel.

    unpack(T) -> list             code-sorted (code, a, b, d) tuples of T
    mul_into(acc, A, B, deg_shift, cap)
    finish(acc) -> dict
    finish_unpacked(acc) -> list  the raw nonzero sums, code-sorted, unreduced
    mul_terms(A, B, deg_shift, cap) -> dict

Coefficient maps send packed monomial codes to GaussianRational values.
Products run on unpacked operands: each term is a (code, a, b, d) tuple
holding the coefficient (a + b*i)/d, and the list is sorted by code.

``mul_into`` is the one product entry. It adds every product monomial of
total degree <= cap of the unpacked A and B into ``acc``, a dict from
code to a raw [a, b, d] accumulator. The shorter operand is the outer
loop, and the kernel lists the inner one's codes itself. The degree is
the topmost field of a code, so for an outer term of degree k the
admissible inner terms are the prefix of codes below
(cap - k + 1) << deg_shift: one bisect per outer term bounds the pair
loop, and no pair tests a degree. Since the outer operand is sorted too,
the loop stops at the first term with an empty prefix, and an empty
operand makes no pair. Raw triples accumulate with a
least-common-multiple denominator merge; when the product's denominator
divides the accumulated one, which is the common case, the product is
scaled up to it and no gcd is taken.

``finish`` normalizes each accumulated monomial once and drops exact
zeros. Several products may accumulate into one ``acc`` before it is
finished, which is how ``jets.compose_many`` sums its P_b * U^b.
``finish_unpacked`` keeps each nonzero raw sum as it is, drops exact
zeros and sorts by code, and takes no gcd: its terms are exact but not
reduced, (a + b*i)/d with a positive d that may share a factor with a
and b. ``compose_many`` keeps its intermediate operands in that form,
the powers U^b shared by several outers and the Horner partial sums of
one outer, since each is only an operand of further products and never
a result; reducing them would pay a gcd per term that removes a few
bits of a few hundred. Results are canonical: every result monomial
passes through ``finish`` once.

``mul_terms`` is unpack + mul_into + finish on two coefficient maps; the
result contains every product monomial of degree <= cap, exactly, with
zero coefficients dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd

from .rationals import GaussianRational


def unpack(terms: dict) -> list[tuple[int, int, int, int]]:
    return sorted([(c, v.a, v.b, v.d) for c, v in terms.items()])


def mul_into(acc: dict, A: list, B: list, deg_shift: int, cap: int) -> None:
    if len(A) > len(B):
        A, B = B, A
    bcodes = [t[0] for t in B]
    for ca, aa, ab, ad in A:
        stop = bisect_left(bcodes, (cap - (ca >> deg_shift) + 1) << deg_shift)
        if not stop:
            break
        for cb, ba, bb, bd in B[:stop]:
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
                m_new, r = divmod(qd, pd)
                if r:
                    g = gcd(qd, pd)
                    m_cur = pd // g
                    m_new = qd // g
                    cur[0] = cur[0] * m_cur + pa * m_new
                    cur[1] = cur[1] * m_cur + pb * m_new
                    cur[2] = qd * m_cur
                else:
                    cur[0] += pa * m_new
                    cur[1] += pb * m_new


def finish(acc: dict) -> dict:
    # Looked up per call, so that a wrapper installed on the class is seen.
    normalize = GaussianRational.normalize
    return {c: normalize(x, y, z) for c, (x, y, z) in acc.items() if x or y}


def finish_unpacked(acc: dict) -> list[tuple[int, int, int, int]]:
    return sorted([(c, x, y, z) for c, (x, y, z) in acc.items() if x or y])


def mul_terms(A: dict, B: dict, deg_shift: int, cap: int) -> dict:
    acc: dict[int, list[int]] = {}
    mul_into(acc, unpack(A), unpack(B), deg_shift, cap)
    return finish(acc)
