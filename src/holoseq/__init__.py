"""Exact arithmetic for P-recursive integer sequences.

The pipeline: build an exponential generating function as a truncated
series, check that a differential operator annihilates it, extract the
recurrence the operator implies for the coefficient sequence, unroll and
verify that recurrence against tables of exact integers, and guess
recurrences back from raw terms.  OEIS A214615 ships as the built-in,
fully cross-checked instance.
"""

from __future__ import annotations

from .bfile import (
    BFileDocument,
    BFileFormatError,
    FetchError,
    HTTPStatusError,
    NetworkUnavailableError,
    default_cache_dir,
    fetch_bfile,
    format_bfile,
    load_bfile,
    parse_bfile,
    write_bfile,
)
from .guessing import InsufficientTermsError, guess_recurrence, nullspace
from .meixner import (
    A214615_ID,
    A214615_INITIAL,
    A214615_RECURRENCE,
    a214615_terms,
    build_egf,
    egf_annihilator,
    meixner_eval,
)
from .operators import (
    DifferentialOperator,
    NonIntegerTermError,
    RecurrenceOperator,
    SingularRecurrenceError,
    VerifyReport,
    egf_shift_weight,
)
from .parsing import (
    OperatorSyntaxError,
    parse_differential_operator,
    parse_polynomial,
    parse_recurrence,
)
from .polynomials import (
    Polynomial,
    X,
    format_rational,
    parse_integer,
    parse_rational,
)
from .sequences import SequenceTable
from .series import (
    ConstantTermError,
    NonIntegerCoefficientError,
    OrderMismatchError,
    Series,
)

__version__ = "0.1.0"

__all__ = [
    "A214615_ID",
    "A214615_INITIAL",
    "A214615_RECURRENCE",
    "BFileDocument",
    "BFileFormatError",
    "ConstantTermError",
    "DifferentialOperator",
    "FetchError",
    "HTTPStatusError",
    "InsufficientTermsError",
    "NetworkUnavailableError",
    "NonIntegerCoefficientError",
    "NonIntegerTermError",
    "OperatorSyntaxError",
    "OrderMismatchError",
    "Polynomial",
    "RecurrenceOperator",
    "SequenceTable",
    "Series",
    "SingularRecurrenceError",
    "VerifyReport",
    "X",
    "a214615_terms",
    "build_egf",
    "default_cache_dir",
    "egf_annihilator",
    "egf_shift_weight",
    "fetch_bfile",
    "format_bfile",
    "format_rational",
    "guess_recurrence",
    "load_bfile",
    "meixner_eval",
    "nullspace",
    "parse_bfile",
    "parse_differential_operator",
    "parse_integer",
    "parse_polynomial",
    "parse_rational",
    "parse_recurrence",
    "write_bfile",
    "__version__",
]
