"""Self-tests for the benchmark code.

    python3 perfbench/selftest.py

The oracles are compared with brute force on small p, input generation with
itself across seeds, the printed metric names with BENCHMARK.json, and the
span self times with the traced wall time of each operation.
"""

import json
import random
import unittest
from pathlib import Path

import cli_ops
import oracles
import run
import spans
import workloads
from workloads import WORKLOADS, Checker, generate, make_runner

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def trial_division_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def lift_by_search(p: int, K: int, d: int) -> int:
    """The w = d (mod p) with w^p = w (mod p^K), by enumeration."""
    mod = p**K
    (w,) = [w for w in range(d % p, mod, p) if pow(w, p, mod) == w]
    return w


class OracleTests(unittest.TestCase):
    def test_primality_and_sieve(self):
        expected = [n for n in range(3, 5000) if trial_division_prime(n)]
        self.assertEqual(list(oracles.odd_primes_up_to(4999)), expected)
        self.assertEqual([n for n in range(5000) if oracles.is_prime(n)], [2] + expected)
        self.assertEqual(oracles.prime_at_or_above(90, 200), 97)
        self.assertEqual(oracles.prime_at_or_above(2**64 - 58, 2**64), 2**64 - 59)

    def test_root_count_and_check_match_brute_force(self):
        for p in (3, 5, 7):
            for K in (2, 3):
                mod = p**K
                for m in (2, 3, 4, 6, p, 2 * p, p * p):
                    v = valuation(m, p)
                    if v + 1 > K:
                        continue
                    for u in range(1, mod):
                        if u % p == 0:
                            continue
                        sols = [r for r in range(mod) if pow(r, m, mod) == u]
                        roots = sorted({r % p ** (K - v) for r in sols})
                        self.assertEqual(len(roots), oracles.root_count(p, K, u, m), (p, K, m, u))
                        self.assertTrue(oracles.check_roots(p, K, u, m, roots, K - v))
                        wrong = roots[1:] + [(roots[0] + 1) if roots else 1]
                        self.assertFalse(oracles.check_roots(p, K, u, m, wrong, K - v))

    def test_sqrt_2adic_matches_brute_force(self):
        for K in range(3, 8):
            mod = 2**K
            for u in range(1, mod, 2):
                roots = sorted({r % 2 ** (K - 1) for r in range(mod) if r * r % mod == u})
                self.assertEqual(bool(roots), u % 8 == 1)
                self.assertTrue(oracles.check_sqrt_2adic(K, u, roots))
                self.assertFalse(oracles.check_sqrt_2adic(K, u, [1, 3] if not roots else roots[:1]))

    def test_witt_value_matches_teichmuller_search(self):
        value = oracles.WittValue()
        for p, K in ((2, 4), (3, 3), (5, 3), (7, 2)):
            seen = set()
            for n in range(p**K):
                digits = [n // p**i % p for i in range(K)]
                brute = sum(p**i * lift_by_search(p, K - i, d) for i, d in enumerate(digits)) % p**K
                self.assertEqual(value(p, digits), brute)
                self.assertEqual(oracles.teichmuller_mod(p, K, digits[0]),
                                 lift_by_search(p, K, digits[0]))
                seen.add(brute)
                self.assertTrue(oracles.check_witt_digits(value, p, K, brute, digits))
                wrong = [(digits[0] + 1) % p] + digits[1:]
                self.assertFalse(oracles.check_witt_digits(value, p, K, brute, wrong))
            self.assertEqual(len(seen), p**K)  # digits <-> residues is a bijection

    def test_log_and_exp_are_inverse_homomorphisms(self):
        for p, K in ((3, 3), (5, 3), (7, 2), (3, 5)):
            mod = p**K
            principal = range(1, mod, p)
            for x in principal:
                theta = oracles.log_mod(p, K, x)
                self.assertEqual(theta % p, 0)
                self.assertEqual(oracles.exp_mod(p, K, theta), x)
            x, y = principal[-1], principal[len(principal) // 2]
            self.assertEqual(oracles.log_mod(p, K, x * y % mod),
                             (oracles.log_mod(p, K, x) + oracles.log_mod(p, K, y)) % mod)

    def test_fermat_quotient(self):
        for p in (3, 5, 7, 11):
            for u in (2, 3, 10, 123):
                if u % p:
                    q = (u ** (p - 1) - 1) // p
                    self.assertEqual(oracles.fermat_quotient_mod(p, 4, u), q % p**3)

    def test_phi1_closed_form_matches_sum(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for x in range(p):
                for y in range(p):
                    self.assertEqual(oracles.phi1_closed_form(p, x, y), oracles.phi1_by_sum(p, x, y))

    def test_flt_witness_check(self):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            hits = [y for y in range(1, p - 1) if oracles.phi1_by_sum(p, 1, y) == 0]
            y = oracles.first_vanishing_carry(p)
            self.assertEqual(y, hits[0] if hits else None)
            if y is None:
                self.assertTrue(oracles.check_flt_witness(p, 3, None))
                continue
            self.assertFalse(oracles.check_flt_witness(p, 3, None))
            total = 1 + y**p
            (root,) = {r % p**2 for r in range(p**3) if pow(r, p, p**3) == total % p**3}
            self.assertTrue(oracles.check_flt_witness(p, 3, (1, y, total, root, 2)))
            self.assertFalse(oracles.check_flt_witness(p, 3, (1, y, total, root + 1, 2)))

    def test_wieferich_scan(self):
        scan = oracles.WieferichScan(3000)
        for base in (2, 3, 5):
            brute = [q for q in range(3, 6000, 2) if trial_division_prime(q) and base % q
                     and pow(base, q - 1, q * q) == 1]
            self.assertEqual(scan.hits(base, 5999), brute)
            self.assertTrue(oracles.check_wieferich(scan, base, 1200, [q for q in brute if q <= 1200]))
        self.assertEqual(scan.hits(2, 10**4), [1093, 3511])
        self.assertFalse(oracles.check_wieferich(scan, 2, 10**4, [1093]))


class GenerationTests(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for w in WORKLOADS:
            a = generate(w, random.Random(f"{w}/1"))
            self.assertEqual(a, generate(w, random.Random(f"{w}/1")), w)
            self.assertNotEqual(a, generate(w, random.Random(f"{w}/2")), w)
            self.assertGreaterEqual(len(a), 100, w)  # ten latency samples beyond p90

    def test_flt_order_matches_oracle(self):
        lo, hi = workloads.FLT_PRIMES
        primes = [q for q in range(lo, hi + 1) if oracles.is_prime(q)]
        order = sorted(primes, key=lambda q: ((oracles.first_vanishing_carry(q) or q - 2) * q, q))
        self.assertEqual(workloads.FLT_BY_SEARCH_LENGTH, tuple(order))


class CliParseTests(unittest.TestCase):
    ROOT = ("cli", "root", (), None, (5, 4, 5, 2))  # README: 2 has no 5-th root mod 5^4

    def check(self, fmt, code, out, err):
        op = self.ROOT[:3] + (fmt,) + self.ROOT[4:]
        return cli_ops.check(Checker("cli"), op, (code, out, err))

    def test_no_root_needs_a_no_root_reason(self):
        reason = "Witt digit 1 nonzero; q_1(2) ≡ 3 (mod 5)"
        self.assertTrue(self.check("human", 1, "", f"no root: {reason}\n"))
        self.assertTrue(self.check("json", 1, json.dumps({"ok": False, "reason": reason}), ""))
        error = "precision must be positive"  # a library error is not a "no root"
        self.assertFalse(self.check("human", 1, "", f"error: {error}\n"))
        self.assertFalse(self.check("json", 1, json.dumps({"ok": False, "reason": error}), ""))


class OutputTests(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for w in WORKLOADS:
            n, failed, metrics = run.run_end_to_end(w, 1, 0, probes=1, limit=2)
            self.assertEqual((n, failed), (2, 0), w)
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, e2e, w)
            n, failed, metrics = run.run_traced(w, 1, limit=2)
            self.assertEqual((n, failed), (4, 0), w)
            self.assertEqual({k: v["unit"] for k, v in metrics.items()}, layer, w)


class MeasureTests(unittest.TestCase):
    def test_quantile_estimate(self):
        self.assertAlmostEqual(run.quantile_ms([0.004], 0.5), 4.0)
        self.assertAlmostEqual(run.quantile_ms([i / 1000 for i in range(101)], 0.5), 50.0)
        uniform = [(i + 0.5) / 2000 for i in range(2000)]
        self.assertAlmostEqual(run.quantile_ms(uniform, 0.9), 900.0, delta=0.5)

    def test_whole_passes_only(self):
        ops = list(range(7))
        seen = []
        passes, failed = run.measure(lambda i, op: seen.append(op), lambda op, r: True, ops, 0.05)
        self.assertEqual(failed, 0)
        self.assertGreater(len(passes), 1)
        self.assertEqual(seen, ops * len(passes))
        self.assertTrue(all(len(p) == len(ops) for p in passes))

    def test_traced_counts_do_not_depend_on_run_length(self):
        a = run.run_traced("deep-roots", 5, limit=24)[2]
        b = run.run_traced("deep-roots", 5, limit=24)[2]
        counts = [k for k, v in a.items() if v["unit"] == "1/op"]
        self.assertIn("padic.teichmuller.calls", counts)
        self.assertEqual({k: a[k] for k in counts}, {k: b[k] for k in counts})


class SpanTests(unittest.TestCase):
    def test_self_times_sum_to_operation_wall_time(self):
        lib = run.load_library()
        for w in WORKLOADS:
            ops = generate(w, random.Random(f"{w}/3"))[:20]
            if w == "search":
                ops = [op for op in ops if op[0] == "wief" and op[2] < 10**5][:2] + [("flt", 101)]
            runner = make_runner(lib, lambda argv, fmt: run.run_cli_inprocess(lib.cli, argv, fmt))
            rec = spans.Recorder()
            undo = spans.install(lib, rec)
            try:
                results = [rec.run_op(i, runner, op) for i, op in enumerate(ops)]
            finally:
                undo()
            check = Checker(w)
            self.assertTrue(all(check(op, r) for op, r in zip(ops, results)), w)
            selfs = spans.self_times(rec)
            per_op = {}
            for i, s in enumerate(selfs):
                self.assertGreaterEqual(s, 0)
                per_op[rec.op[i]] = per_op.get(rec.op[i], 0) + s
            for i in range(len(rec)):
                if rec.name[i] == 0:
                    self.assertEqual(per_op[rec.op[i]], rec.t1[i] - rec.t0[i], w)
            self.assertGreater(len(rec), 2 * len(ops), w)  # library spans, not only op spans


if __name__ == "__main__":
    unittest.main()
