"""Root criteria and constructions, Fermat quotients, searches."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import wittpadics
from wittpadics import (
    ExactExponent,
    InvalidDegree,
    NotAUnit,
    PAdicInt,
    PAdicNumber,
    PrecisionTooLow,
    RootCondition,
    RootReason,
    ValuationCondition,
    WittVector,
    WrongPrime,
    fermat_quotient,
    flt_local_witness,
    general_root,
    hensel_kth_root,
    padic_to_witt,
    pk_root,
    pk_root_exists,
    ppow,
    root_quotient_congruence_check,
    sqrt_2adic,
    teichmuller,
    wieferich_search,
    witt_to_padic,
)
from wittpadics.roots import WIEFERICH_LIMIT, _k1_cross_check


def unit(p, prec, r):
    return PAdicNumber(p, 0, PAdicInt(p, prec, r))


# ------------------------------------------------------------ fermat quotient


def test_fermat_quotient_examples():
    q = fermat_quotient(unit(11, 3, 3))
    assert (q.precision, q.residue) == (2, 44)
    assert 5368 % 121 == 44 and q.residue % 11 == 0
    assert fermat_quotient(unit(7, 3, 1)).residue == 0
    assert fermat_quotient(unit(5, 2, 2)).residue == 3
    assert (2**4 - 1) // 5 == 3


def test_fermat_quotient_preconditions():
    with pytest.raises(NotAUnit):
        fermat_quotient(PAdicNumber.from_integer(10, 5, 3))
    with pytest.raises(PrecisionTooLow):
        fermat_quotient(unit(5, 1, 2))
    with pytest.raises(WrongPrime):
        fermat_quotient(unit(2, 4, 3))


def test_fermat_quotient_digit_identity():
    # Witt digit 1 of a unit x is -x q_1(x) mod p
    rng = random.Random(30)
    for _ in range(100):
        p = rng.choice((3, 5, 7, 11, 13))
        prec = rng.randint(2, 6)
        r = rng.randrange(1, p**prec)
        if r % p == 0:
            continue
        x = unit(p, prec, r)
        digit1 = padic_to_witt(x.unit).digits[1]
        assert digit1 == -r * fermat_quotient(x).residue % p


# ------------------------------------------------------------------ existence


def test_pk_root_exists_examples():
    assert pk_root_exists(PAdicNumber.from_integer(3, 11, 3), 1).ok
    check = pk_root_exists(PAdicNumber.from_integer(2, 5, 3), 1)
    assert (check.ok, check.reason, check.digit_index) == (
        False,
        RootReason.WITT_DIGIT_NONZERO,
        1,
    )
    check = pk_root_exists(PAdicNumber.from_integer(11 * 4, 11, 3), 1)
    assert (check.ok, check.reason) == (False, RootReason.VALUATION_NOT_DIVISIBLE)


def test_pk_root_exists_and_ppow_report_the_same_obstruction():
    # both read one criterion: the RootCheck reason and the exception ppow
    # raises must name the same failed condition, carry that reason, and name
    # the same Witt digit
    raised_for = {
        RootReason.OK: None,
        RootReason.VALUATION_NOT_DIVISIBLE: ValuationCondition,
        RootReason.WITT_DIGIT_NONZERO: RootCondition,
    }
    rng = random.Random(36)
    seen = set()
    for p in (3, 5, 7):
        for k in (1, 2):
            for _ in range(40):
                # units from Witt digits, with digits 1 and 2 often zero
                digits = [rng.randrange(1, p)] + [rng.choice((0, rng.randrange(p))) for _ in range(3)]
                u = witt_to_padic(WittVector(p, tuple(digits)))
                x = PAdicNumber(p, rng.choice((0, 1, p, p * p)), u)
                check = pk_root_exists(x, k)
                try:
                    ppow(x, ExactExponent(1, k))
                    raised, index = None, None
                except RootCondition as exc:
                    raised, index = type(exc), exc.digit_index
                    assert exc.reason is check.reason
                assert raised is raised_for[check.reason]
                assert index == check.digit_index
                seen.add((k, check.reason, check.digit_index))
    assert (2, RootReason.WITT_DIGIT_NONZERO, 2) in seen  # digit 2 the first nonzero one
    assert {(k, RootReason.OK, None) for k in (1, 2)} <= seen
    assert (1, RootReason.VALUATION_NOT_DIVISIBLE, None) in seen


def test_pk_root_exists_needs_digits():
    with pytest.raises(PrecisionTooLow):
        pk_root_exists(unit(5, 2, 6), 2)


def test_k1_cross_check_rejects_a_wrong_digit_verdict():
    # the cross-check must not become a no-op: a flipped verdict has to raise
    rng = random.Random(38)
    verdicts = set()
    for _ in range(60):
        p = rng.choice((3, 5, 7, 11, 1000003))
        prec = rng.randint(2, 8)
        r = rng.randrange(1, p**prec)
        if r % p == 0:
            continue
        if rng.random() < 0.5:
            r = pow(r, p, p**prec)
        x = unit(p, prec, r)
        truth = pk_root_exists(x, 1).ok
        verdicts.add(truth)
        with pytest.raises(AssertionError):
            _k1_cross_check(x.unit, digit_ok=not truth)
    assert verdicts == {True, False}


def test_criterion_equivalence_500_units():
    # Witt digit 1, q_1 mod p, and a^p = a mod p^2 must agree everywhere.
    rng = random.Random(31)
    disagreements = 0
    for _ in range(500):
        p = rng.choice((3, 5, 7, 11, 13))
        prec = rng.randint(2, 8)
        r = rng.randrange(1, p**prec)
        if r % p == 0:
            r += 1
        x = unit(p, prec, r)
        # pk_root_exists cross-asserts internally and would raise on mismatch
        digit_test = pk_root_exists(x, 1).ok
        quotient_test = fermat_quotient(x).residue % p == 0
        a = r % p**2
        power_test = pow(a, p, p**2) == a
        if not (digit_test == quotient_test == power_test):
            disagreements += 1
    assert disagreements == 0


def _first_nonzero_digit(digits, last):
    return next((i for i in range(1, last + 1) if digits[i]), None)


def _root_obstruction(x, k):
    """The digit_index ppow's RootCondition names for x^(1/p^k), None when the root exists."""
    try:
        ppow(x, ExactExponent(1, k))
    except RootCondition as exc:
        return exc.digit_index
    return None


def test_criterion_matches_the_witt_digit_peel_on_every_small_unit():
    # every unit mod the largest p^K <= 2^12, and every k with enough digits:
    # the root fails at the first nonzero Witt digit in 1..k (1..k+1 at p = 2)
    cases = 0
    for p in (2, 3, 5, 7, 11, 13, 61):
        K = 1
        while p ** (K + 1) <= 2**12:
            K += 1
        for r in range(1, p**K):
            if r % p == 0:
                continue
            digits = oracles.witt_digits_by_peel(p, K, r)
            x = PAdicNumber(p, 0, PAdicInt(p, K, r))
            for k in range(1, K - (p == 2)):
                first = _first_nonzero_digit(digits, k + (p == 2))
                assert _root_obstruction(x, k) == first, (p, K, r, k)
                check = pk_root_exists(x, k)
                assert (check.ok, check.digit_index) == (first is None, first), (p, K, r, k)
                cases += 1
    assert cases == 55538


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from((1000003, 2**61 - 1)),
    st.integers(2, 8),
    st.integers(1, 9),
    st.integers(0, 2**64),
    st.integers(0, 2**64),
    st.integers(0, 7),
)
def test_criterion_finds_a_planted_first_digit_at_large_p(p, K, j, x0, c, k):
    # u = teichmuller(x0) * (1 + p^j c) with c a unit has Witt digits 1..j-1 zero and digit j nonzero
    x0 = 1 + x0 % (p - 1)
    c = c if c % p else c + 1
    k = 1 + k % (K - 1)
    u = oracles.teichmuller_by_power(p, K, x0) * (1 + p**j * c) % p**K
    first = j if j <= k else None
    assert _first_nonzero_digit(oracles.witt_digits_by_peel(p, K, u), k) == first
    x = PAdicNumber(p, 0, PAdicInt(p, K, u))
    assert _root_obstruction(x, k) == first
    check = pk_root_exists(x, k)
    assert (check.ok, check.digit_index) == (first is None, first)


def test_a_root_degree_far_beyond_the_precision_fails_at_once():
    # the criterion reads v_p of the valuation and never builds p^k
    k = 3 * 10**6
    x = PAdicNumber(11, 0, PAdicInt(11, 4, 3))
    for call in (lambda: pk_root_exists(x, k), lambda: pk_root(x, k), lambda: ppow(x, ExactExponent(1, k))):
        start = time.perf_counter()
        with pytest.raises(PrecisionTooLow):
            call()
        assert time.perf_counter() - start < 0.1
    y = PAdicNumber(11, 11, PAdicInt(11, 4, 3))
    start = time.perf_counter()
    assert pk_root(y, k).reason is RootReason.VALUATION_NOT_DIVISIBLE
    assert time.perf_counter() - start < 0.1


# --------------------------------------------------------------- construction


def test_pk_root_eleventh_root_of_three():
    report = pk_root(PAdicNumber.from_integer(3, 11, 3), 1)
    assert report.exists and report.output_precision == 2
    root = report.roots[0]
    assert root.unit.residue == 113  # that is -8 mod 121
    assert pow(113, 11, 121) == 3
    assert oracles.brute_force_roots(11, 3, 11, 3) == [113 + 121 * c for c in range(11)]


def test_pk_root_trivial_and_seven_adic():
    report = pk_root(PAdicNumber.from_integer(1, 7, 4), 2)
    assert report.roots[0].unit.residue == 1

    report = pk_root(PAdicNumber.from_integer(129, 7, 3), 1)
    root = report.roots[0]
    assert root.unit.residue % 49 == 3
    assert pow(root.unit.residue, 7, 49) == 129 % 49
    brute = oracles.brute_force_roots(7, 3, 7, 129)
    assert sorted({r % 49 for r in brute}) == [3]


def test_pk_root_with_valuation():
    x = PAdicNumber.from_integer(3 * 11**11, 11, 3)
    report = pk_root(x, 1)
    root = report.roots[0]
    assert (root.valuation, root.unit.residue) == (1, 113)


def test_pk_root_failure_report():
    report = pk_root(PAdicNumber.from_integer(2, 5, 4), 1)
    assert not report.exists
    assert report.reason is RootReason.WITT_DIGIT_NONZERO
    assert report.roots == ()


def test_pk_root_soundness_random():
    rng = random.Random(32)
    found = 0
    for _ in range(400):
        p = rng.choice((3, 5, 7, 11))
        k = rng.choice((1, 2))
        prec = rng.randint(k + 1, 7)
        digits = [rng.randrange(1, p)] + [0] * k + [rng.randrange(p) for _ in range(prec - k - 1)]
        x = PAdicNumber(p, 0, witt_to_padic(WittVector(p, tuple(digits))))
        report = pk_root(x, k)
        assert report.exists
        root = report.roots[0]
        assert pow(root.unit.residue, p**k, p**prec) == x.unit.residue
        found += 1
    assert found == 400


def test_power_then_root_round_trip():
    rng = random.Random(33)
    for _ in range(150):
        p = rng.choice((3, 5, 7, 11))
        k = rng.choice((1, 2))
        prec = rng.randint(k + 1, 7)
        r = rng.randrange(1, p**prec)
        if r % p == 0:
            continue
        x = unit(p, prec, r)
        report = pk_root(x.pow_int(p**k), k)
        assert report.exists
        assert report.roots[0].unit == x.unit.with_precision(prec - k)


def test_zero_pattern_necessity():
    # digits 1..k of any p^k-th power vanish
    rng = random.Random(34)
    for _ in range(200):
        p = rng.choice((3, 5, 7, 11))
        k = rng.choice((1, 2))
        prec = rng.randint(k + 1, 6)
        r = rng.randrange(1, p**prec)
        if r % p == 0:
            continue
        y = unit(p, prec, r).pow_int(p**k)
        assert all(d == 0 for d in padic_to_witt(y.unit).digits[1 : k + 1])


# -------------------------------------------------------- quotient congruence


def test_root_quotient_congruence_example():
    report = root_quotient_congruence_check(PAdicNumber.from_integer(3, 11, 3), 1)
    assert report.holds
    assert report.scaled_quotient == 4  # q_1(3)/11 = 488 = 4 mod 11
    assert report.root_quotient == 4
    assert report.digit_value == report.digit_predicted == -3 * 4 % 11


def test_root_quotient_congruence_trivial():
    report = root_quotient_congruence_check(PAdicNumber.from_integer(1, 5, 4), 1)
    assert report.holds
    assert report.root_quotient == report.scaled_quotient == 0


def test_root_quotient_congruence_on_a_non_root_raises_with_its_reason():
    # 2 has Witt digit 1 nonzero at p = 5: no 5th root, and the text the CLI's root gives
    with pytest.raises(RootCondition) as info:
        root_quotient_congruence_check(PAdicNumber.from_integer(2, 5, 4), 1)
    assert (info.value.reason, info.value.digit_index) == (RootReason.WITT_DIGIT_NONZERO, 1)
    assert str(info.value) == "Witt digit 1 nonzero; q_1(2) ≡ 3 (mod 5)"


def test_root_quotient_congruence_random():
    rng = random.Random(35)
    count = 0
    while count < 100:
        p = rng.choice((5, 7, 11))
        prec = rng.randint(3, 6)
        digits = [rng.randrange(1, p), 0] + [rng.randrange(p) for _ in range(prec - 2)]
        x = PAdicNumber(p, 0, witt_to_padic(WittVector(p, tuple(digits))))
        assert root_quotient_congruence_check(x, 1).holds
        count += 1


# ------------------------------------------------------------------ p = 2


def test_sqrt_2adic_17():
    report = sqrt_2adic(PAdicNumber.from_integer(17, 2, 10))
    assert report.exists and report.output_precision == 9
    residues = sorted(r.unit.residue for r in report.roots)
    assert residues == [233, 279]
    for r in residues:
        assert pow(r, 2, 1024) == 17
    brute = oracles.brute_force_roots(2, 10, 2, 17)
    assert sorted({r % 512 for r in brute}) == residues


def test_sqrt_2adic_one_and_three():
    report = sqrt_2adic(PAdicNumber.from_integer(1, 2, 6))
    residues = sorted(r.unit.residue for r in report.roots)
    assert residues == [1, 2**5 - 1]  # 1 and -1

    report = sqrt_2adic(PAdicNumber.from_integer(3, 2, 6))
    assert (report.exists, report.reason, report.digit_index) == (False, RootReason.WITT_DIGIT_NONZERO, 1)


def test_sqrt_2adic_guards():
    with pytest.raises(WrongPrime):
        sqrt_2adic(PAdicNumber.from_integer(17, 5, 4))
    with pytest.raises(PrecisionTooLow):
        sqrt_2adic(PAdicNumber.from_integer(17, 2, 2))


def test_sqrt_2adic_matches_brute_force():
    rng = random.Random(36)
    for _ in range(40):
        prec = rng.randint(4, 9)
        x = rng.randrange(1, 2**prec, 2)
        report = sqrt_2adic(unit(2, prec, x))
        brute = oracles.brute_force_roots(2, prec, 2, x)
        if x % 8 != 1:
            assert not report.exists
            assert brute == []
            continue
        got = sorted(r.unit.residue for r in report.roots)
        assert sorted({r % 2 ** (prec - 1) for r in brute}) == got


def test_pk_root_at_p2_is_the_pair_around_the_ppow_root():
    # +-y are the only 2^k-th roots; ppow's is the one that is 1 mod 4
    for K in range(3, 10):
        for k in range(1, K - 1):
            for z in range(1, 2**K, 2):
                for s in (0, 1):
                    x = PAdicNumber(2, s * 2**k, PAdicInt(2, K, pow(z, 2**k, 2**K)))
                    y = ppow(x, ExactExponent(1, k))
                    report = pk_root(x, k)
                    assert y.unit.residue % 4 == 1 and y.valuation == s
                    assert [r.unit.residue for r in report.roots] == sorted({y.unit.residue, (-y.unit).residue})
                    assert {(r.valuation, r.unit.precision) for r in report.roots} == {(s, K - k)}
                    assert report.output_precision == K - k


def test_sqrt_2adic_is_pk_root_of_degree_two():
    # every odd unit mod 2^K, K <= 10, at valuations 0..3
    for K in range(1, 11):
        for u in range(1, 2**K, 2):
            for s in range(4):
                x = PAdicNumber(2, s, PAdicInt(2, K, u))
                if s % 2 == 0 and K < 3:
                    with pytest.raises(PrecisionTooLow):
                        sqrt_2adic(x)
                    continue
                assert sqrt_2adic(x) == pk_root(x, 1) == general_root(x, 2), (K, u, s)

    x = PAdicNumber.from_integer(4, 2, 8)
    report = sqrt_2adic(x)
    assert report == general_root(x, 2)
    assert [(r.valuation, r.unit.residue, r.unit.precision) for r in report.roots] == [(1, 1, 7), (1, 127, 7)]
    report = sqrt_2adic(PAdicNumber.from_integer(2, 2, 8))
    assert (report.exists, report.reason) == (False, RootReason.VALUATION_NOT_DIVISIBLE)
    with pytest.raises(wittpadics.ZeroInput):
        sqrt_2adic(PAdicNumber.zero(2))


def test_hensel_kth_root_at_p2_matches_brute_force():
    # an odd power is a bijection on the units mod 2^K, so there is one root
    for K in range(1, 9):
        for k in (1, 3, 5, 7, 9, 15):
            for a in range(1, 2**K, 2):
                roots = hensel_kth_root(PAdicInt(2, K, a), k)
                assert [r.residue for r in roots] == oracles.brute_force_roots(2, K, k, a)
                assert roots[0].precision == K
    with pytest.raises(InvalidDegree):
        hensel_kth_root(PAdicInt(2, 5, 1), 6)


def test_general_root_at_p2_matches_brute_force_on_every_small_unit():
    # every odd unit mod 2^K, K <= 10, at valuations 0, 1 and 2, against the
    # brute-force m-th roots mod 2^K read mod 2^(K - v) with v = v_2(m)
    cases = 0
    for K in range(1, 11):
        for m in (1, 2, 3, 4, 5, 6, 8, 12, 16, 24):
            v = (m & -m).bit_length() - 1
            roots_of = {}  # brute_force_roots(2, K, m, u) for every u at once
            for r in range(1, 2**K, 2):
                roots_of.setdefault(pow(r, m, 2**K), set()).add(r % 2 ** max(K - v, 0))
            for u in range(1, 2**K, 2):
                for s in (0, 1, 2):
                    x = PAdicNumber(2, s, PAdicInt(2, K, u))
                    cases += 1
                    if s % m == 0 and v and K < v + 2:
                        with pytest.raises(PrecisionTooLow):
                            general_root(x, m)
                        continue
                    report = general_root(x, m)
                    expected = sorted(roots_of.get(u, ())) if s % m == 0 else []
                    assert [r.unit.residue for r in report.roots] == expected, (K, m, u, s)
                    assert all(r.valuation == s // m for r in report.roots)
                    assert report.exists == bool(expected)
                    assert report.output_precision == (K - v if expected else K)
    assert cases == 30690


# ------------------------------------------------------------- general degree


def test_general_root_examples():
    report = general_root(PAdicNumber.from_integer(64, 5, 3), 6)
    assert sorted(r.unit.residue for r in report.roots) == [2, 123]
    assert pow(123, 6, 125) == 64

    x = PAdicNumber.from_integer(77, 7, 4)
    assert general_root(x, 1).roots == (x,)

    report = general_root(PAdicNumber.from_integer(2, 5, 4), 10)
    assert (report.exists, report.reason, report.digit_index) == (
        False,
        RootReason.WITT_DIGIT_NONZERO,
        1,
    )


def test_general_root_valuation_handling():
    # 3^6 * 5^6 has the 6th root 3 * 5
    x = PAdicNumber.from_integer(3**6 * 5**6, 5, 4)
    report = general_root(x, 6)
    assert report.exists
    assert {(r.valuation, r.unit.residue % 5) for r in report.roots} >= {(1, 3)}
    for r in report.roots:
        assert r.valuation == 1
        assert pow(r.unit.residue, 6, 5**4) == 3**6 % 5**4

    report = general_root(PAdicNumber.from_integer(5, 5, 4), 2)
    assert (report.exists, report.reason) == (False, RootReason.VALUATION_NOT_DIVISIBLE)


def test_general_root_not_kth_residue():
    report = general_root(PAdicNumber.from_integer(3, 7, 3), 2)
    assert (report.exists, report.reason) == (False, RootReason.NOT_KTH_RESIDUE)


@pytest.mark.parametrize(
    "p,m,x,reason",
    [
        (7, 2, 64, RootReason.OK),
        (7, 2, 3, RootReason.NOT_KTH_RESIDUE),
        (7, 14, pow(3, 14, 7**4), RootReason.OK),
        (7, 14, pow(3, 7, 7**4), RootReason.NOT_KTH_RESIDUE),
        # At p = 2 pk_root gives two roots, +-y, before the odd part m' of m.
        (2, 6, 3**6, RootReason.OK),
        (2, 10, 5**10, RootReason.OK),
        (2, 12, 3**12, RootReason.OK),
    ],
)
def test_general_root_runs_one_residue_test(monkeypatch, p, m, x, reason):
    calls = []
    residue_test = wittpadics.padic.kth_power_residue_test

    def counted(*args):
        calls.append(args)
        return residue_test(*args)

    for module in (wittpadics.padic, wittpadics.roots):
        monkeypatch.setattr(module, "kth_power_residue_test", counted, raising=False)
    report = general_root(PAdicNumber.from_integer(x, p, 4), m)
    assert report.reason is reason and report.exists == (reason is RootReason.OK)
    assert len(calls) == 1


@pytest.mark.parametrize("K", [3, 4, 7])
def test_failed_reports_carry_the_input_precision(K):
    p = 5
    tau2 = teichmuller(PAdicInt(p, K, 2)).residue  # Witt digits 1.. are zero; 2 is no square mod 5
    failures = [
        (pk_root(PAdicNumber.from_integer(2, p, K), 1), RootReason.WITT_DIGIT_NONZERO),
        (sqrt_2adic(PAdicNumber.from_integer(3, 2, K)), RootReason.WITT_DIGIT_NONZERO),
        (general_root(PAdicNumber(p, 1, PAdicInt(p, K, 1)), 5), RootReason.VALUATION_NOT_DIVISIBLE),
        (general_root(PAdicNumber.from_integer(2, p, K), 5), RootReason.WITT_DIGIT_NONZERO),
        (general_root(PAdicNumber(p, 0, PAdicInt(p, K, tau2)), 10), RootReason.NOT_KTH_RESIDUE),
    ]
    for report, reason in failures:
        assert (report.exists, report.reason, report.roots) == (False, reason, ())
        assert report.output_precision == K


def test_general_root_matches_brute_force():
    rng = random.Random(37)
    cases = multi_root_p_part = 0
    # p = 7 takes degrees 21 and 42, where gcd(m', p - 1) = 3 or 6 meets v = 1;
    # half its inputs are m-th powers so that the roots exist.
    for p, prec_max, target in ((3, 6, 60), (5, 4, 120), (7, 4, 200)):
        while cases < target:
            prec = rng.randint(3, prec_max)
            r = rng.randrange(1, p**prec)
            if r % p == 0:
                continue
            if p < 7:
                m = rng.randint(2, 12)
            else:
                m = rng.choice((3, 6, 7, 14, 21, 42))
                if rng.random() < 0.5:
                    r = pow(r, m, p**prec)
            v = 0
            mm = m
            while mm % p == 0:
                v += 1
                mm //= p
            if prec <= v:
                continue
            report = general_root(unit(p, prec, r), m)
            brute = oracles.brute_force_roots(p, prec, m, r)
            out_mod = p ** report.output_precision
            got = sorted(root.unit.residue % out_mod for root in report.roots)
            assert got == sorted({b % out_mod for b in brute})
            assert report.exists == bool(brute)
            cases += 1
            multi_root_p_part += v > 0 and len(report.roots) > 1
    assert cases >= 200
    assert multi_root_p_part > 0


def test_general_root_takes_an_odd_degree_at_p2_and_rejects_zero():
    report = general_root(PAdicNumber.from_integer(17, 2, 6), 3)
    assert [r.unit.residue for r in report.roots] == oracles.brute_force_roots(2, 6, 3, 17)
    import wittpadics

    with pytest.raises(wittpadics.ZeroInput):
        general_root(PAdicNumber.zero(5), 2)


# ----------------------------------------------------------------- searches


def test_wieferich_search():
    assert wieferich_search(2, 10**4) == [1093, 3511]
    assert wieferich_search(2, 1000) == []
    assert wieferich_search(3, 100) == [11]


def test_wieferich_matches_direct_scan():
    for base in (2, 3, 5):
        expected = [p for p in sympy.primerange(3, 501) if base % p and pow(base, p - 1, p * p) == 1]
        assert wieferich_search(base, 500) == expected


def _wieferich_by_scan(base, limit):
    return [p for p in sympy.primerange(3, limit + 1) if base % p and pow(base, p - 1, p * p) == 1]


# Small and composite bases, bases with p | base and p^2 | base (30030, 1093^2),
# and bases of several 30-bit digits.
WIEFERICH_BASES = [2, 3, 5, 6, 7, 10, 30030, 1093**2, 2**64 + 1, 10**99 + 7]
# Around 2^15, where p^2 outgrows one 30-bit digit of a Python int, and two
# apart on either side of the first two sieve segment edges, 2^16 and 2^17.
WIEFERICH_EDGE_LIMITS = [32749, 32768, 32771, *range(2**16 - 2, 2**16 + 3), *range(2**17 - 2, 2**17 + 3)]


@pytest.mark.parametrize("base", WIEFERICH_BASES)
def test_wieferich_matches_direct_scan_at_small_limits_and_segment_edges(base):
    limits = [*range(3, 401), *WIEFERICH_EDGE_LIMITS]
    expected = _wieferich_by_scan(base, max(limits))
    for limit in limits:
        assert wieferich_search(base, limit) == [p for p in expected if p <= limit], limit


@pytest.mark.parametrize(
    "base, limit, hits",
    [
        (2, 2 * 10**6, [1093, 3511]),
        (3, 11 * 10**5, [11, 1006003]),
        (5, 10**5, [20771, 40487]),
        (7, 5 * 10**5, [5, 491531]),
        (10, 10**5, [3, 487]),
    ],
)
def test_wieferich_known_hits(base, limit, hits):
    assert wieferich_search(base, limit) == hits


# The first nine odd primes, and the first nine past 2^15 and past 2^16: every
# position in a block of 8, in the first block and on both sides of the first
# segment edge.
PLANTED = [p for start in (3, 2**15, 2**16) for p in list(sympy.primerange(start, start + 200))[:9]]


@pytest.mark.parametrize("p", PLANTED)
def test_wieferich_finds_a_planted_hit_at_each_block_position(p):
    # t^p mod p^2 is a hit at p, with base^((p-1)/2) = +1 or -1 mod p^2 as t is
    # a square mod p or not; take a base of each kind.  For small p, t^p mod p^2
    # can be 1, so add p^2 to keep the base >= 2.
    bases = {}
    for t in range(2, 1000):
        if t % p:
            base = pow(t, p, p * p)
            bases.setdefault(pow(t, (p - 1) // 2, p), base if base >= 2 else base + p * p)
    assert len(bases) == 2
    for base in bases.values():
        expected = _wieferich_by_scan(base, p + 100)
        assert p in expected
        assert wieferich_search(base, p + 100) == expected


@pytest.mark.parametrize("sign", [-1, 1])
def test_wieferich_finds_planted_hits_for_a_wide_base(sign):
    # base = +-1 mod p^2 at every planted p, so each is a hit, and base^((p-1)/2)
    # is -1 mod p^2 at p = 3 mod 4 when sign is -1.
    base = math.prod(p * p for p in PLANTED) + sign
    hits = wieferich_search(base, 2**17)
    assert set(PLANTED) <= set(hits)
    assert hits == _wieferich_by_scan(base, 2**17)


def test_wieferich_preconditions():
    with pytest.raises(ValueError):
        wieferich_search(1, 100)
    with pytest.raises(ValueError):
        wieferich_search(2, 2)
    for limit in (WIEFERICH_LIMIT + 1, 10**13):
        with pytest.raises(ValueError, match="limit must be <= 2"):
            wieferich_search(2, limit)


def test_wieferich_search_memory_does_not_grow_with_the_limit():
    # ru_maxrss is in KiB on Linux.  A list of the 283146 primes below 4*10^6
    # alone would take about 10 MB.
    code = (
        "import resource, wittpadics\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert wittpadics.wieferich_search(2, 4 * 10**6) == [1093, 3511]\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    package_root = str(Path(wittpadics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 4 * 1024


# ------------------------------------------------------------- local witness


def test_flt_witness_seven():
    w = flt_local_witness(7)
    assert (w.x, w.y, w.sum) == (1, 2, 129)
    assert w.root.residue % 49 == 3
    assert pow(w.root.residue, 7, 7**6) == 129
    # sign pattern: x^p + y^p + (-root)^p = 0 in the 7-adics
    assert (w.x**7 + w.y**7 - pow(w.root.residue, 7, 7**6)) % 7**6 == 0


def test_flt_witness_small_primes_none():
    assert flt_local_witness(3) is None
    assert flt_local_witness(5) is None


def test_flt_witness_is_the_least_closed_form_hit():
    for p in sympy.primerange(3, 3000):
        m = p * p
        hit = next((y for y in range(1, p - 1) if pow(1 + y, p, m) == (1 + pow(y, p, m)) % m), None)
        w = flt_local_witness(p)
        assert (w and w.y) == hit, p


@pytest.mark.parametrize("p,y", [(1009, 374), (65519, None), (65521, 16673)])
def test_flt_witness_pinned(p, y):
    w = flt_local_witness(p)
    assert (w and w.y) == y
    if w is not None:
        assert (w.x, w.sum) == (1, 1 + y**p)
        assert pow(w.root.residue, p, p**6) == w.sum % p**6


@pytest.mark.parametrize("p", [65537, 2**64 - 59])
def test_flt_witness_rejects_p_above_limit(p):
    with pytest.raises(ValueError, match=f"p must be <= 2\\^16, got {p}"):
        flt_local_witness(p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_flt_witness_needs_two_digits(p):
    with pytest.raises(PrecisionTooLow, match="need 2 digits to read Witt digits 1..1, have 1"):
        flt_local_witness(p, precision=1)


def test_flt_witness_matches_phi1_scan():
    for p in (11, 13, 17, 19, 1009):
        hits = [y for y in range(1, p - 1) if oracles.phi1_by_sum(p, 1, y) == 0]
        w = flt_local_witness(p)
        if hits:
            assert w is not None and w.y == hits[0]
            assert pow(w.root.residue, p, p**6) == (1 + w.y**p) % p**6
        else:
            assert w is None
