"""Exact and numeric computation of generalized triangular number families.

The library computes q-analogue and elliptic analogues of Stirling, rook,
Lah and Eulerian numbers, each by at least two independent routes, and ships
the theta-function identities underlying them as executable checks.
"""

from .errors import (
    DegenerateParameters,
    DegenerateSequence,
    DomainError,
    QEllipticError,
)
from .eulerian import (
    elliptic_eulerian_rows,
    elliptic_r_whitney_eulerian_rows,
    eulerian_rows,
    general_eulerian_rows,
    lagrange_delta,
    q_eulerian,
    q_eulerian_rows,
    q_r_whitney_eulerian,
    q_r_whitney_eulerian_rows,
    r_whitney_eulerian_rows,
    worpitzky_check,
)
from .families import (
    FerrersBoard,
    elliptic_lah_rows,
    elliptic_rook_row,
    elliptic_shifted_stirling_rows,
    elliptic_stirling2_rows,
    lah,
    q_stirling2,
    q_stirling2_rows,
    st_shifted_stirling_rows,
    stirling2,
    stirling2_rows,
    weight_product,
    whitney_qr_rows,
)
from .newton import (
    AffineWhitneySequence,
    ClassicalSequence,
    EllipticSequence,
    ExplicitSequence,
    QNumberSequence,
    QWhitneySequence,
    STSequence,
    ValueSequence,
    connection_explicit_scaled,
    connection_recurrence,
    falling_factorial,
    h_explicit_scaled,
    h_recurrence,
    newton_oracle_scaled,
)
from .scalars import (
    COMPLEX,
    EXACT_Q,
    RATIONAL,
    ExactScalar,
    LaurentPoly,
    ScalarField,
    q_binomial,
    q_factorial,
    q_number,
    residual,
    st_number,
)
from .theta import (
    EllipticParams,
    elliptic_number,
    elliptic_number_shifted,
    elliptic_weight,
    elliptic_weight_shifted,
    sample_elliptic_params,
)

__version__ = "0.1.0"
