"""Exact and numeric computation of generalized triangular number families.

The library computes q-analogue and elliptic analogues of Stirling, rook,
Lah and Eulerian numbers, each by at least two independent routes, and ships
the theta-function identities underlying them as executable checks.

The package is its modules, and importing it loads none of them: import
each name from the module that defines it, e.g.
``from qelliptic.families import elliptic_lah_rows``.  ``qelliptic.cli``
is the command line, ``qelliptic.suites`` the seeded checks behind it.
"""

__version__ = "0.1.0"
