"""Terminating hypergeometric sums at 1, in integers.

Every quantity here is an integer; nothing in this module ever rounds.
The package computes over integer numerators and one denominator; an
exact complex value leaves it as two ``fractions.Fraction`` parts.
"""

from __future__ import annotations

import operator


def terminating_pair(nums, dens) -> tuple[int, int]:
    """pFq(nums; dens; 1) over integer parameters, for a series that
    terminates, as an unreduced integer pair (top, bot) with bot != 0.

    It stops at m = min(j) over the numerator parameters -j <= 0; a
    denominator parameter -j with j < m divides a term with a nonzero
    numerator by zero.  1 + r_0 (1 + r_1 (1 + ... r_{m-1})) over the term
    ratios r_i = prod(p + i over nums) / ((i + 1) prod(p + i over dens))
    is summed by Horner in integers, in one pass from i = m-1 down; the
    caller reduces, if at all.  A parameter that is not an integer raises
    TypeError.
    """
    nums = list(map(operator.index, nums))
    dens = list(map(operator.index, dens))
    stops = [-p for p in nums if p <= 0]
    if not stops:
        raise ValueError(
            f"{len(nums)}F{len(dens)}({', '.join(map(str, nums))}; ...; 1) "
            "has no nonpositive-integer numerator parameter")
    m = min(stops)
    for p in dens:
        if -m < p <= 0:
            raise ZeroDivisionError(
                f"denominator parameter {p} vanishes before the series "
                f"stops at term {m}")
    top = bot = 1
    for i in range(m - 1, -1, -1):
        a = 1
        for p in nums:
            a *= p + i
        b = i + 1
        for p in dens:
            b *= p + i
        top, bot = b * bot + a * top, b * bot
    return top, bot
