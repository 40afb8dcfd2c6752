"""Acceptance suite: one test per criterion, exact residue equality throughout.

Each test prints a single PASS line (visible with pytest -s or -rA) after its
assertions; the stated runtime bounds are asserted where the criterion gives
one.
"""

import random
import time

import oracles
from wittpadics import (
    PAdicInt,
    PAdicNumber,
    RootReason,
    WittVector,
    de_moivre_check,
    factor_system_phi1,
    fermat_quotient,
    flt_local_witness,
    general_root,
    padic_to_witt,
    pexp,
    pk_root,
    pk_root_exists,
    plog,
    root_quotient_congruence_check,
    sqrt_2adic,
    wieferich_search,
    witt_add,
    witt_mul,
    witt_to_padic,
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_eleventh_root_of_three():
    def compute():
        return pk_root(PAdicNumber.from_integer(3, 11, 3), 1)

    report, elapsed = _timed(compute)
    root = report.roots[0]
    assert report.exists and report.output_precision == 2
    assert root.unit.residue == 113
    assert pow(113, 11, 121) == 3
    assert elapsed < 0.010
    print("criterion 1 PASS: 11th root of 3 is 113 mod 11^2 and 113^11 = 3 mod 11^2")


def test_criterion_2_quotient_pipeline_for_three():
    def compute():
        quotient = fermat_quotient(PAdicNumber.from_integer(3, 11, 5))
        check = root_quotient_congruence_check(PAdicNumber.from_integer(3, 11, 3), 1)
        return quotient, check

    (quotient, check), elapsed = _timed(compute)
    assert quotient.residue == 5368
    assert 5368 % 11 == 0
    assert check.holds
    assert check.scaled_quotient == 4
    assert check.root_quotient == 4
    # independent pin of the same endpoint through the recursion oracle
    entries = oracles.ghost_entries_by_solving(11, 3, 2)
    assert (-entries[2] // 3) % 11 == 4
    assert elapsed < 0.010
    print("criterion 2 PASS: q_1(3) = 5368, 11 | 5368, and the k=1 congruence value is 4 mod 11")


def test_criterion_3_seven_adic_fermat_witness():
    def compute():
        return (
            factor_system_phi1(7, 1, 2),
            witt_add(WittVector(7, (1, 0)), WittVector(7, (2, 0))),
            flt_local_witness(7, precision=6),
        )

    (phi, total, witness), elapsed = _timed(compute)
    assert phi == 0
    assert total.digits == (3, 0)
    assert witness is not None and witness.sum == 129
    assert witness.root.residue % 49 == 3
    assert pow(witness.root.residue, 7, 7**6) == 129
    assert elapsed < 0.050
    print("criterion 3 PASS: phi_1(1,2) = 0 mod 7, (1,0]+(2,0] = (3,0], 129 has the 7-adic root 3 mod 49")


def test_criterion_4_wieferich_to_ten_thousand():
    hits, elapsed = _timed(lambda: wieferich_search(2, 10**4))
    assert hits == [1093, 3511]
    assert elapsed < 5.0
    print(f"criterion 4 PASS: wieferich_search(2, 10^4) = [1093, 3511] in {elapsed * 1000:.1f} ms")


def test_criterion_5_three_way_criterion_agreement():
    rng = random.Random(500)
    disagreements = 0
    for _ in range(500):
        p = rng.choice((3, 5, 7, 11, 13))
        prec = rng.randint(2, 8)
        r = rng.randrange(1, p**prec)
        if r % p == 0:
            r += 1
        x = PAdicNumber(p, 0, PAdicInt(p, prec, r))
        digit_test = pk_root_exists(x, 1).ok
        quotient_test = fermat_quotient(x).residue % p == 0
        a = r % p**2
        power_test = pow(a, p, p**2) == a
        if not (digit_test == quotient_test == power_test):
            disagreements += 1
    assert disagreements == 0
    print("criterion 5 PASS: 500 random units, 0 disagreements among the three k=1 tests")


def test_criterion_6_ring_isomorphism_and_factor_system():
    rng = random.Random(600)
    for p in (3, 5, 7, 11):
        for _ in range(500):
            k = rng.randint(1, 6)
            a = PAdicInt(p, k, rng.randrange(p**k))
            b = PAdicInt(p, k, rng.randrange(p**k))
            assert padic_to_witt(a + b) == witt_add(padic_to_witt(a), padic_to_witt(b))
            assert padic_to_witt(a * b) == witt_mul(padic_to_witt(a), padic_to_witt(b))
    for p in (3, 5, 7):
        for x0 in range(p):
            for y0 in range(p):
                total = witt_add(WittVector(p, (x0, 0)), WittVector(p, (y0, 0)))
                assert total == WittVector(p, ((x0 + y0) % p, factor_system_phi1(p, x0, y0)))
    print("criterion 6 PASS: 500 pairs per prime match residue ops; phi_1 grid matches for p in {3,5,7}")


def test_criterion_7_analytic_inverses_and_de_moivre():
    rng = random.Random(700)
    for p in (3, 5, 7, 11, 13):
        for _ in range(500):
            u = PAdicInt(p, 8, 1 + p * rng.randrange(p**7))
            assert pexp(plog(u)) == u
            t = PAdicInt(p, 8, p * rng.randrange(p**7))
            assert plog(pexp(t)) == t
    pairs = 0
    while pairs < 300:
        p = rng.choice((3, 5, 7, 11))
        k = rng.randint(2, 6)
        a, b = rng.randrange(1, p**k), rng.randrange(1, p**k)
        if a % p == 0 or b % p == 0:
            continue
        x = PAdicNumber(p, rng.randint(-2, 2), PAdicInt(p, k, a))
        y = PAdicNumber(p, rng.randint(-2, 2), PAdicInt(p, k, b))
        assert de_moivre_check(x, y)
        pairs += 1
    for p in (5, 7):
        half = pow(2, -1, p)
        for a1 in range(p):
            for a2 in range(p):
                x = witt_to_padic(WittVector(p, (1, a1, a2)))
                assert padic_to_witt(plog(x)) == WittVector(p, (0, a1, (a2 - half * a1 * a1) % p))
                theta = witt_to_padic(WittVector(p, (0, a1, a2)))
                assert padic_to_witt(pexp(theta)) == WittVector(p, (1, a1, (a2 + half * a1 * a1) % p))
    print("criterion 7 PASS: log/exp inverse on 500 points per prime; De Moivre on 300 pairs; closed forms on full grids")


def test_criterion_8_root_sets_match_exhaustive_scan():
    rng = random.Random(800)
    cases = 0
    for p, prec_choices, quota in ((3, (3, 4, 5, 6), 50), (5, (3, 4), 50), (5, (6,), 6)):
        done = 0
        while done < quota:
            prec = rng.choice(prec_choices)
            r = rng.randrange(1, p**prec)
            if r % p == 0:
                continue
            m = rng.randint(2, 12)
            v = 0
            mm = m
            while mm % p == 0:
                v += 1
                mm //= p
            if prec <= v:
                continue
            x = PAdicNumber(p, 0, PAdicInt(p, prec, r))
            report = general_root(x, m)
            brute = oracles.brute_force_roots(p, prec, m, r)
            out_mod = p**report.output_precision
            assert report.exists == bool(brute)
            got = sorted(root.unit.residue % out_mod for root in report.roots)
            assert got == sorted({b % out_mod for b in brute})
            done += 1
            cases += 1
    assert cases >= 100
    print(f"criterion 8 PASS: {cases} (x, m) cases match exhaustive root scans, including empty sets")


def test_criterion_9_two_adic_square_roots():
    report = sqrt_2adic(PAdicNumber.from_integer(17, 2, 10))
    assert report.exists and report.output_precision == 9
    residues = sorted(r.unit.residue for r in report.roots)
    assert residues == [233, 279]
    for r in residues:
        assert pow(r, 2, 2**10) == 17
    failed = sqrt_2adic(PAdicNumber.from_integer(3, 2, 10))
    assert (failed.exists, failed.reason) == (False, RootReason.MOD8_FAILURE)
    print("criterion 9 PASS: sqrt(17) = {233, 279} mod 2^9 with squares = 17 mod 2^10; sqrt(3) fails mod 8")
