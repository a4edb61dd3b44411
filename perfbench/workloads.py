"""Seeded command lists for the three benchmark workloads.

Each workload is a list of argv lists for ``qelliptic.cli.main``.  The
workload seed decides everything random about the list; the program
sees only the generated argv.
"""

from __future__ import annotations

import random

# exact families at n = 10, so that several passes fit in one run; (m, r)
# is fixed because it swings the work of the Whitney explicit routes by
# orders of magnitude
EXACT_N = 10
EXACT_PLAIN = {
    "stirling": ("recurrence", "explicit"),
    "qstirling": ("recurrence", "explicit", "h"),
    "eulerian": ("recurrence", "explicit"),
    "qeulerian": ("recurrence", "explicit", "engine"),
}
EXACT_WHITNEY = {
    "whitney": ("recurrence", "explicit"),
    "rwhitneyeulerian": ("direct", "engine"),
    "qrwhitneyeulerian": ("recurrence", "explicit", "engine"),
}
EXACT_MR = ((1, 0), (2, 1))

# numeric families at n = 8, every route, one parameter draw per seed: from
# n = 11 on the library fails its own cross-route checks, and at n = 9-10 the
# margin under the tolerance is thin (README.md)
ELLIPTIC_N = 8
ELLIPTIC_MR = (2, 1)
ELLIPTIC_FAMILIES = {
    "estirling": ("recurrence", "h", "explicit", "oracle"),
    "lah": ("recurrence", "explicit", "oracle"),
    "eeulerian": ("recurrence", "explicit", "engine"),
    "erwhitneyeulerian": ("recurrence", "explicit"),
    "eshifted": ("recurrence", "explicit"),
    "stshifted": ("recurrence", "explicit"),
}
ELLIPTIC_WITH_MR = ("erwhitneyeulerian", "eshifted", "stshifted")
ROOK_BOARD = "1,2,3,4,5,6,7,8"
ROOK_ROUTES = ("explicit", "oracle")
ELLIPTIC_DRAWS = 24

SUITES = (
    "theta",
    "elliptic-identities",
    "h-routes",
    "connection",
    "rook",
    "lah",
    "eulerian-routes",
    "worpitzky",
    "degeneration",
)
CHECK_TRIALS = 25
CHECK_SEEDS = 4
DEGENERATE_FAMILIES = ("stirling", "eulerian", "lah")


def _exact_tables(rng: random.Random) -> list[list[str]]:
    n = ["--n", str(EXACT_N)]
    cmds = [
        ["table", "--family", fam, "--route", route, *n]
        for fam, routes in EXACT_PLAIN.items()
        for route in routes
    ]
    cmds += [
        ["table", "--family", fam, "--route", route, *n,
         "--m", str(m), "--r", str(r)]
        for m, r in EXACT_MR
        for fam, routes in EXACT_WHITNEY.items()
        for route in routes
    ]
    rng.shuffle(cmds)
    return cmds


def _elliptic_tables(rng: random.Random) -> list[list[str]]:
    m, r = ELLIPTIC_MR
    cmds = []
    for _ in range(ELLIPTIC_DRAWS):
        draw = ["--seed", str(rng.randrange(2**31))]
        for fam, routes in ELLIPTIC_FAMILIES.items():
            mr = ["--m", str(m), "--r", str(r)] if fam in ELLIPTIC_WITH_MR else []
            for route in routes:
                cmds.append(["table", "--family", fam, "--route", route,
                             "--n", str(ELLIPTIC_N), *mr, *draw])
        for route in ROOK_ROUTES:
            cmds.append(["table", "--family", "rook", "--route", route,
                         "--board", ROOK_BOARD, *draw])
    return cmds


def _check_suites(rng: random.Random) -> list[list[str]]:
    cmds = []
    for _ in range(CHECK_SEEDS):
        seed = ["--seed", str(rng.randrange(2**31))]
        for suite in SUITES:
            cmds.append(["check", "--suite", suite,
                         "--trials", str(CHECK_TRIALS), *seed])
        for fam in DEGENERATE_FAMILIES:
            cmds.append(["degenerate", "--family", fam, *seed])
    return cmds


WORKLOADS = {
    "exact-tables": _exact_tables,
    "elliptic-tables": _elliptic_tables,
    "check-suites": _check_suites,
}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's argv list; the same (workload, seed) gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
