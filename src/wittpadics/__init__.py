"""Exact p-adic arithmetic on truncated Witt vectors."""

from .analytic import (
    ExactExponent,
    PolarForm,
    de_moivre_check,
    pexp,
    plog,
    polar,
    ppow,
    recompose,
)
from .errors import (
    DomainError,
    ExactDivisionFailure,
    InvalidDegree,
    LengthLimit,
    MismatchedRing,
    NotAUnit,
    NotPrime,
    PadicError,
    PrecisionTooLow,
    RootCondition,
    SelfCheckFailed,
    ValuationCondition,
    WrongPrime,
    ZeroInput,
)
from .padic import (
    GHOST_LENGTH_CAP,
    GhostSequence,
    PAdicInt,
    PAdicNumber,
    ghost_sequence,
    hensel_kth_root,
    kth_power_residue_test,
    padic_valuation,
    teichmuller,
    unit_inverse,
)
from .primes import is_prime, primes_up_to
from .roots import (
    FermatWitness,
    QuotientCongruenceReport,
    RootCheck,
    RootReason,
    RootReport,
    fermat_quotient,
    flt_local_witness,
    general_root,
    pk_root,
    pk_root_exists,
    root_quotient_congruence_check,
    sqrt_2adic,
    wieferich_search,
)
from .witt import (
    WittVector,
    factor_system_phi1,
    integer_to_witt,
    padic_to_witt,
    witt_add,
    witt_digits,
    witt_inv,
    witt_mul,
    witt_neg,
    witt_to_padic,
)

__version__ = "0.1.0"
