"""Named instance catalog with frozen expected tables.

Small graphic and uniform oriented matroids used by the CLI, the verify
harness, and the regression tests.  Each entry is written the way an
instance file is: its source is a mapping such as
{"graph": {"edges": [[0, 1], ...]}} or {"uniform": {"r": 2, "n": 4}},
and building the entry passes it, with the entry's name, through
core.instance_from_dict.  _DEFS is keyed by name, in listing order.

Every expected value carries a provenance note: "literature" for
externally published facts (graphic matroids are regular, uniform U(2,k)
has one acyclic cocircuit reversal class for even k and two for odd k,
U(r,n) with a 4-point-line minor is not regular), "oracle" for numbers
computed by the exhaustive oracles in this package and frozen on their
first run.

FAMILIES maps each survey family name to a function of max_n that returns
its entries, built the same way as the catalog's:

    catalog-nonregular   the catalog entries tagged non-regular (max_n unused)
    u2k                  U(2,k) for k = 3..max_n, 3 <= max_n <= 16

The u2k claims are literature facts: U(2,3) is regular (r = n - 1, so it
is binary), every U(2,k) with k >= 4 has a 4-point-line minor and is not,
and U(2,k) has one acyclic cocircuit reversal class for even k and two
for odd k.

The five-tuples follow the setting order of tutte.SETTINGS, the order of
the Tutte evaluations at the settings' points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import OrientedMatroid, instance_from_dict


@dataclass(frozen=True)
class Expected:
    value: object
    provenance: str  # "literature" | "oracle"


@dataclass
class CatalogEntry:
    name: str
    description: str
    tags: frozenset
    expected: dict
    factory: object = field(repr=False)

    def build(self) -> OrientedMatroid:
        return self.factory()


_DEFS = {
    "tri": (
        "triangle graph 0->1, 1->2, 0->2",
        {"graph": {"edges": [[0, 1], [1, 2], [0, 2]]}},
        ("regular", "loopless-coloopless", "graphic"),
        {
            "regular": Expected(True, "literature"),
            "tutte_evaluations": Expected((3, 4, 7, 2, 1), "oracle"),
            "reversal_counts": Expected((3, 4, 7, 2, 1), "oracle"),
        },
    ),
    "c4": (
        "directed 4-cycle",
        {"graph": {"edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}},
        ("regular", "loopless-coloopless", "graphic"),
        {
            "regular": Expected(True, "literature"),
            "tutte_evaluations": Expected((4, 5, 15, 3, 1), "oracle"),
            "reversal_counts": Expected((4, 5, 15, 3, 1), "oracle"),
        },
    ),
    "c5": (
        "directed 5-cycle",
        {"graph": {"edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}},
        ("regular", "loopless-coloopless", "graphic"),
        {
            "regular": Expected(True, "literature"),
            "tutte_evaluations": Expected((5, 6, 31, 4, 1), "oracle"),
            "reversal_counts": Expected((5, 6, 31, 4, 1), "oracle"),
        },
    ),
    "k4": (
        "complete graph on 4 vertices, edges in lex order",
        {"graph": {"edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}},
        ("regular", "loopless-coloopless", "graphic"),
        {
            "regular": Expected(True, "literature"),
            "tutte_evaluations": Expected((16, 38, 38, 6, 6), "oracle"),
            "reversal_counts": Expected((16, 38, 38, 6, 6), "oracle"),
        },
    ),
    "path2": (
        "path 0->1->2: two coloops",
        {"graph": {"edges": [[0, 1], [1, 2]]}},
        ("regular", "has-coloop", "graphic"),
        {
            "regular": Expected(True, "literature"),
            "tutte_evaluations": Expected((1, 1, 4, 1, 0), "oracle"),
            "reversal_counts": Expected((1, 1, 4, 1, 0), "oracle"),
        },
    ),
    "loop1": (
        "a single loop",
        {"graph": {"edges": [[0, 0]]}},
        ("regular", "has-loop", "graphic"),
        {
            "regular": Expected(True, "literature"),
            "tutte_evaluations": Expected((1, 2, 1, 0, 1), "oracle"),
            "reversal_counts": Expected((1, 2, 1, 0, 1), "oracle"),
        },
    ),
    "loop-plus-triangle": (
        "triangle graph plus a loop (element 3)",
        {"graph": {"edges": [[0, 1], [1, 2], [0, 2], [0, 0]]}},
        ("regular", "has-loop", "graphic"),
        {
            "regular": Expected(True, "literature"),
            "tutte_evaluations": Expected((3, 8, 7, 0, 1), "oracle"),
            "reversal_counts": Expected((3, 8, 7, 0, 1), "oracle"),
        },
    ),
    "u24": (
        "uniform U(2,4): the 4-point line",
        {"uniform": {"r": 2, "n": 4}},
        ("non-regular", "loopless-coloopless", "uniform"),
        {
            "regular": Expected(False, "literature"),
            "tutte_evaluations": Expected((6, 11, 11, 3, 3), "oracle"),
            "reversal_counts": Expected((2, 9, 9, 1, 1), "oracle"),
            "acyclic_cocircuit_classes": Expected(1, "literature"),
        },
    ),
    "u25": (
        "uniform U(2,5)",
        {"uniform": {"r": 2, "n": 5}},
        ("non-regular", "loopless-coloopless", "uniform"),
        {
            "regular": Expected(False, "literature"),
            "tutte_evaluations": Expected((10, 26, 16, 4, 6), "oracle"),
            "reversal_counts": Expected((3, 24, 11, 2, 1), "oracle"),
            "acyclic_cocircuit_classes": Expected(2, "literature"),
        },
    ),
    "u26": (
        "uniform U(2,6)",
        {"uniform": {"r": 2, "n": 6}},
        ("non-regular", "loopless-coloopless", "uniform"),
        {
            "regular": Expected(False, "literature"),
            "tutte_evaluations": Expected((15, 57, 22, 5, 10), "oracle"),
            "reversal_counts": Expected((2, 53, 13, 1, 1), "oracle"),
            "acyclic_cocircuit_classes": Expected(1, "literature"),
        },
    ),
    "u35": (
        "uniform U(3,5)",
        {"uniform": {"r": 3, "n": 5}},
        ("non-regular", "loopless-coloopless", "uniform"),
        {
            "regular": Expected(False, "literature"),
            "tutte_evaluations": Expected((10, 16, 26, 6, 4), "oracle"),
            "reversal_counts": Expected((3, 11, 24, 1, 2), "oracle"),
        },
    ),
    "u36": (
        "uniform U(3,6)",
        {"uniform": {"r": 3, "n": 6}},
        ("non-regular", "loopless-coloopless", "uniform"),
        {
            "regular": Expected(False, "literature"),
            "tutte_evaluations": Expected((20, 42, 42, 10, 10), "oracle"),
            "reversal_counts": Expected((6, 35, 35, 3, 3), "oracle"),
        },
    ),
}


def _entry(name, description, source, tags, expected):
    return CatalogEntry(
        name=name,
        description=description,
        tags=frozenset(tags),
        expected=dict(expected),
        factory=lambda: instance_from_dict({"name": name, "source": source}),
    )


def catalog_instances():
    """All catalog entries, in the fixed listing order."""
    return [_entry(name, *row) for name, row in _DEFS.items()]


def _u2k(max_n):
    """U(2,k) for k = 3..max_n, each with its literature claims."""
    if not 3 <= max_n <= 16:
        raise ValueError("u2k survey needs 3 <= max-n <= 16, got %r" % (max_n,))
    # U(2,3) is binary (r = n - 1); every U(2,k) with k >= 4 is not
    return [
        _entry(
            "U(2,%d)" % k,
            "uniform U(2,%d)" % k,
            {"uniform": {"r": 2, "n": k}},
            ("regular" if k == 3 else "non-regular", "loopless-coloopless", "uniform"),
            {} if k == 3 else {"acyclic_cocircuit_classes": Expected(1 + k % 2, "literature")},
        )
        for k in range(3, max_n + 1)
    ]


FAMILIES = {
    "catalog-nonregular": lambda max_n: [
        e for e in catalog_instances() if "non-regular" in e.tags
    ],
    "u2k": _u2k,
}


def get_entry(name: str) -> CatalogEntry:
    if name not in _DEFS:
        raise KeyError("no catalog entry named %r" % (name,))
    return _entry(name, *_DEFS[name])


def get_instance(name: str) -> OrientedMatroid:
    """Build the named catalog instance."""
    return get_entry(name).build()
