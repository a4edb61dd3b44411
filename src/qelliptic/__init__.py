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
    eulerian,
    general_eulerian,
    general_eulerian_rows,
    lagrange_delta,
    q_eulerian,
    q_r_whitney_eulerian,
    r_whitney_eulerian,
    worpitzky_check,
)
from .eulerian import elliptic_eulerian, elliptic_r_whitney_eulerian
from .families import (
    FerrersBoard,
    elliptic_lah,
    elliptic_rook,
    elliptic_shifted_stirling,
    elliptic_stirling2,
    lah,
    q_stirling2,
    st_shifted_stirling,
    stirling2,
    weight_product,
    whitney_qr,
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
    ThetaPolicy,
    elliptic_number,
    elliptic_number_shifted,
    elliptic_weight,
    elliptic_weight_shifted,
    sample_elliptic_params,
    theta,
)

__version__ = "0.1.0"
