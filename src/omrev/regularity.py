"""Regularity test by circuit-cocircuit intersection parity.

A matroid is binary iff every circuit support meets every cocircuit
support in an even number of elements, and an orientable binary matroid is
regular.  Inputs here always carry an orientation, so the parity test over
the stored lists decides regularity outright.  It runs on per-element
parity bitsets over the cocircuit list: the XOR of a circuit's elements'
bitsets marks the cocircuits it meets oddly, one XOR per circuit element
instead of one test per circuit/cocircuit pair.  Equality of
reversal-class counts with the matching Tutte evaluations holds exactly
for the regular instances; the witness pair of a failed test is the first
odd intersection in storage order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import xor

from .core import _elements_of, _table_planes


@dataclass
class RegularityVerdict:
    regular: bool
    witness: tuple | None = None  # (circuit support, cocircuit support) frozensets

    def to_json_dict(self):
        if self.witness is None:
            return {"regular": self.regular, "witness": None}
        c, d = self.witness
        return {
            "regular": self.regular,
            "witness": {"circuit": sorted(c), "cocircuit": sorted(d)},
        }


def is_binary(M) -> RegularityVerdict:
    """Even-intersection test of every circuit/cocircuit support pair.

    Bit j of parity[e] is set iff element e lies in cocircuit j, so the
    XOR of parity[e] over a circuit's elements has bit j set iff the
    circuit meets cocircuit j in an odd number of elements.  The first
    circuit with a set bit, and its lowest one, are the first odd pair in
    storage order.  The parity bitsets are the cocircuit supports read as
    a table and transposed by core._table_planes.
    """
    parity = _table_planes([supp for supp, _, _ in M.cocircuit_data], M.n)
    for supp, _, _ in M.circuit_data:
        odd = reduce(xor, map(parity.__getitem__, _elements_of(supp)))
        if odd:
            cocircuit = M.cocircuit_data[(odd & -odd).bit_length() - 1][0]
            return RegularityVerdict(
                False, (frozenset(_elements_of(supp)), frozenset(_elements_of(cocircuit)))
            )
    return RegularityVerdict(True, None)


def classify(M) -> str:
    """'regular' or 'non-regular' (vacuously regular without circuits)."""
    return "regular" if is_binary(M).regular else "non-regular"
