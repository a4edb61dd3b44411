"""The stdout of ``--format csv`` and ``--format pretty``, pinned.

The JSON output of every route is pinned in ``test_table_pins.py``; these
cover the two other renderers over exact, numeric and rook tables.  The
digests were recorded while each entry was still kept as a row dict and
a {"re", "im"} dict, before the renderers read (n, k, value) triples.
"""

import hashlib

import pytest

from qelliptic.cli import main

# family, flags beyond --seed 1: "exit code:sha256 prefix" for csv, pretty
PINNED = {
    "stirling": (("--n", "6"), "0:cc067c01a2c992cd", "0:9d7dd9b85666aaf5"),
    "qeulerian": (("--n", "6"), "0:d1442f58464fa7b0", "0:5dd5fbb7e147a55d"),
    "whitney": (("--n", "6", "--m", "2", "--r", "1"),
                "0:6f961ef09f89e1fa", "0:a47bca7739f2cfa2"),
    "estirling": (("--n", "6"), "0:7a7c898f15442ff0", "0:ef0d4f1ce6efdf8b"),
    "lah": (("--n", "6"), "0:1b89833f2dfba154", "0:d001bdd1a7b84e51"),
    "rook": (("--board", "1,2,3"), "0:09df48f313d84d81", "0:4d597d7e547cf01b"),
}
CASES = [(family, fmt, flags, pin)
         for family, (flags, *pins) in PINNED.items()
         for fmt, pin in zip(("csv", "pretty"), pins)]


@pytest.mark.parametrize("family, fmt, flags, pin", CASES,
                         ids=[f"{family}-{fmt}" for family, fmt, _, _ in CASES])
def test_csv_and_pretty_keep_their_bytes(capsys, family, fmt, flags, pin):
    code = main(["table", "--family", family, *flags, "--seed", "1", "--format", fmt])
    out = capsys.readouterr().out
    assert f"{code}:{hashlib.sha256(out.encode()).hexdigest()[:16]}" == pin
