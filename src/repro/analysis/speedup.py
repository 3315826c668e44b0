"""The speedup cap -- the bound behind Figures 4-7.

The paper plots speedup against PE count for each scheme.  Its
denominator is the one-fast-PE configuration ("For p = 1: 1 fast PE"),
so speedup can exceed the PE count only through measurement noise, and
heterogeneous mixes cap below ``p``: Figure 6's caption works the cap
out explicitly -- 3 fast + 5 slow with fast ~= 3x slow gives total power
``3 + 5/3 ~= 4.67``, "thus, without Tcom/Twait we expect S_p <= 4.5".
:func:`power_cap` computes that bound for any mix.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["power_cap"]


def power_cap(virtual_powers: Sequence[float], fast: float | None = None
              ) -> float:
    """Upper bound on speedup vs one PE of power ``fast``.

    ``fast`` defaults to the largest virtual power in the mix (the
    paper's p=1 baseline is a fast PE).  Example: powers
    ``[3, 3, 3, 1, 1, 1, 1, 1]`` -> ``14/3 ~= 4.67`` (Figure 6's
    "we expect S_p <= 4.5" modulo their rounding of the speed ratio).
    """
    powers = [float(v) for v in virtual_powers]
    if not powers or any(v <= 0 for v in powers):
        raise ValueError(f"virtual powers must be positive: {powers}")
    denom = float(fast) if fast is not None else max(powers)
    return sum(powers) / denom

