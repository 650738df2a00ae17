"""Byte-identity of the command-line outputs, as SHA-256 digests.

For every catalog entry and for its dual (passed as a signed instance
file), the digests cover `analyze --out json` plain, with `--verbose`,
with the reversed `--order` and with both, the `analyze` table,
`witness --out json` in every accepted (mode, restriction) pair, and
`verify`.  A refactor that keeps every output must keep every digest.

When an output change is intended, rewrite the digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from omrev import catalog_instances, dual, get_entry, load_instance_file
from omrev.catalog import CatalogEntry
from omrev.cli import cmd_verify, main

GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"

WITNESS_SETTINGS = (
    ("both", "all"),
    ("cocircuit", "all"),
    ("circuit", "all"),
    ("cocircuit", "acyclic"),
    ("circuit", "totally_cyclic"),
    ("both", "acyclic"),
    ("both", "totally_cyclic"),
)


def _digest(code, text):
    return hashlib.sha256(b"%d\n" % code + text.encode()).hexdigest()


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return _digest(code, out.getvalue())


def _verify(entry):
    out = io.StringIO()
    return _digest(cmd_verify(entries=[entry], stream=out), out.getvalue())


def _dual_entry(entry, directory):
    """(file path, catalog-style entry) for the dual of entry, as a signed file."""
    D = dual(entry.build())
    path = str(Path(directory) / ("dual-%s.json" % entry.name))
    signed = {
        "circuits": [X.to_json_dict() for X in D.circuits],
        "cocircuits": [X.to_json_dict() for X in D.cocircuits],
    }
    Path(path).write_text(json.dumps({"name": D.name, "source": {"signed": signed}}))
    regularity = "regular" if "regular" in entry.tags else "non-regular"
    return path, CatalogEntry(
        name=D.name,
        description="dual of %s" % entry.name,
        tags=frozenset([regularity]),
        expected={},
        factory=lambda: load_instance_file(path),
    )


def outputs(directory):
    """Digest of every covered output, keyed by target and command line."""
    digests = {}
    for entry in catalog_instances():
        n = entry.build().n
        dual_path, dual_entry = _dual_entry(entry, directory)
        for label, target, checked in (
            (entry.name, entry.name, get_entry(entry.name)),
            (dual_entry.name, dual_path, dual_entry),
        ):
            order = ",".join(map(str, range(n - 1, -1, -1)))
            for flags in ([], ["--verbose"], ["--order", order], ["--verbose", "--order", order]):
                argv = ["analyze", target, "--out", "json", *flags]
                digests["%s: %s" % (label, " ".join(argv[2:]))] = _cli(argv)
            digests["%s: --out table" % label] = _cli(["analyze", target])
            for mode, restriction in WITNESS_SETTINGS:
                argv = ["witness", target, "--mode", mode, "--restriction", restriction]
                digests["%s: witness %s %s" % (label, mode, restriction)] = _cli(
                    argv + ["--out", "json"]
                )
            digests["%s: verify" % label] = _verify(checked)
    return digests


def test_outputs_match_the_recorded_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    assert outputs(tmp_path) == recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        GOLDEN.write_text(json.dumps(outputs(directory), indent=1, sort_keys=True) + "\n")
