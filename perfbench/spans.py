"""Spans around the library's public boundary functions, recorded from outside.

install() puts a wrapper on every module attribute that binds a traced
function (padic_to_witt, for one, is bound in witt, analytic, roots and
cli) and returns a function that puts the originals back.  Spans live in
flat arrays in memory and are written out once the run is over.  A span's
self time is its duration minus the time covered by its child spans.
"""

import gzip
import math
from array import array
from time import perf_counter_ns

# The layers and the boundary functions measured in each.  _k1_cross_check is
# the one private function: its cost decides whether it can become optional.
TRACED = {
    "primes": ("check_prime", "primes_up_to"),
    "padic": ("teichmuller", "unit_inverse", "hensel_kth_root"),
    "witt": ("padic_to_witt", "witt_to_padic", "witt_mul", "factor_system_phi1"),
    "analytic": ("plog", "pexp", "ppow", "polar", "recompose"),
    "roots": ("pk_root_exists", "pk_root", "general_root", "sqrt_2adic", "fermat_quotient",
              "_k1_cross_check", "wieferich_search", "flt_local_witness"),
    "cli": ("main",),
}
OP = "op"  # the benchmark's own span around one whole operation
NAMES = (OP,) + tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Scaling fits: log self time per call against log K on deep-roots.
K_FITTED = ("padic.teichmuller", "witt.padic_to_witt", "witt.witt_to_padic",
            "analytic.plog", "analytic.pexp")


def _precision(x):
    return x.precision, x.p, 0


# Per function: (args, result) -> (K, p, count) stored on the span.
_AUX = {
    "padic.teichmuller": lambda a, r: _precision(a[0]),
    "padic.hensel_kth_root": lambda a, r: (a[0].precision, a[0].p, len(r)),
    "witt.padic_to_witt": lambda a, r: (a[0].precision, a[0].p, len(r.digits)),
    "witt.witt_to_padic": lambda a, r: (a[0].length, a[0].p, 0),
    "analytic.plog": lambda a, r: _precision(a[0]),
    "analytic.pexp": lambda a, r: _precision(a[0]),
    "analytic.ppow": lambda a, r: (a[1].normalized(a[0].p).denominator_power, a[0].p, 0),
    "roots.pk_root_exists": lambda a, r: (a[1], a[0].p, 0),
    "primes.primes_up_to": lambda a, r: (0, 0, len(r)),
}


class Recorder:
    """Flat span store: one entry per call in each array, indexed by span id."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("q")
        self.t1 = array("q")
        self.k = array("i")
        self.p = array("d")
        self.count = array("i")
        self.stack = [-1]
        self.op_id = -1
        self._op = self.wrap(lambda fn, arg: fn(arg), 0, None)

    def __len__(self):
        return len(self.t0)

    def wrap(self, fn, name_id, aux):
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec.t0)
            rec.name.append(name_id)
            rec.parent.append(rec.stack[-1])
            rec.op.append(rec.op_id)
            rec.t1.append(0)
            rec.k.append(0)
            rec.p.append(0.0)
            rec.count.append(0)
            rec.stack.append(idx)
            rec.t0.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.t1[idx] = perf_counter_ns()
                rec.stack.pop()
            if aux is not None:
                rec.k[idx], rec.p[idx], rec.count[idx] = aux(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, fn, arg):
        """Call fn(arg) inside an OP span tagged op_id."""
        self.op_id = op_id
        return self._op(fn, arg)

    def write(self, path) -> None:
        """All spans as gzip'd TSV: op, id, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tid\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{NAMES[self.name[i]]}\t"
                         f"{self.t0[i]}\t{self.t1[i]}\n")


def install(lib, rec: Recorder):
    """Wrap every binding of every traced function; returns the undo function."""
    modules = [lib.package, lib.primes, lib.padic, lib.witt, lib.analytic, lib.roots, lib.cli]
    patched = []
    for mod_name, fns in TRACED.items():
        home = getattr(lib, mod_name)
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            fn = getattr(home, fn_name)
            wrapper = rec.wrap(fn, NAMES.index(name), _AUX.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def undo():
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)

    return undo


# ----------------------------------------------------------------- analysis


def self_times(rec: Recorder) -> list[int]:
    n = len(rec)
    dur = [rec.t1[i] - rec.t0[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        parent = rec.parent[i]
        if parent >= 0:
            child[parent] += dur[i]
    return [d - c for d, c in zip(dur, child)]


def _slope(points) -> float:
    """Least-squares slope of y on x over (group, x, y) points, one intercept per group."""
    groups = {}
    for g, x, y in points:
        groups.setdefault(g, []).append((x, y))
    sxy = sxx = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx > 0 else 0.0


def layer_metrics(rec: Recorder, n_ops: int) -> dict:
    """Per traced function: calls and self time per operation, counts per
    operation, and scaling fits (zero where unused).

    Dividing by the n_ops operations of the traced pass, which are the same on
    every host, keeps calls and counts fixed by the inputs and the code.
    """
    selfs = self_times(rec)
    n = len(rec)
    calls = [0] * len(NAMES)
    self_ns = [0] * len(NAMES)
    for i in range(n):
        calls[rec.name[i]] += 1
        self_ns[rec.name[i]] += selfs[i]
    out = {}
    for j, name in enumerate(NAMES[1:], start=1):
        out[f"{name}.calls"] = (calls[j] / n_ops, "1/op")
        out[f"{name}.self_s"] = (self_ns[j] / 1e9 / n_ops, "s/op")
    ids = {name: j for j, name in enumerate(NAMES)}
    by_name = {}
    for i in range(n):
        by_name.setdefault(rec.name[i], []).append(i)

    def spans(name):
        return by_name.get(ids[name], [])

    to_witt = spans("witt.padic_to_witt")
    out["witt.padic_to_witt.digits_out"] = (sum(rec.count[i] for i in to_witt) / n_ops, "1/op")
    readers = {ids["roots.pk_root_exists"], ids["analytic.ppow"]}
    read = computed = 0
    for i in to_witt:
        parent = rec.parent[i]
        if parent >= 0 and rec.name[parent] in readers:
            read += rec.k[parent] + 1
            computed += rec.count[i]
    out["witt.padic_to_witt.digits_read_ratio"] = (read / computed if computed else 0.0, "ratio")
    hensel = spans("padic.hensel_kth_root")
    out["padic.hensel_kth_root.roots_out"] = (sum(rec.count[i] for i in hensel) / n_ops, "1/op")
    out["primes.primes_up_to.primes_out"] = (
        sum(rec.count[i] for i in spans("primes.primes_up_to")) / n_ops, "1/op")
    searches = calls[ids["roots.flt_local_witness"]]
    out["witt.factor_system_phi1.calls_per_witness"] = (
        calls[ids["witt.factor_system_phi1"]] / searches if searches else 0.0, "ratio")

    for name in K_FITTED:
        cells = {}
        for i in spans(name):
            cells.setdefault((rec.p[i], rec.k[i]), []).append(selfs[i])
        points = [(p, math.log(k), math.log(max(sum(v) / len(v), 1)))
                  for (p, k), v in cells.items() if k > 0]
        out[f"{name}.k_exponent"] = (_slope(points), "1")
    points = [(0, math.log(rec.p[i]), math.log(max(selfs[i], 1)))
              for i in hensel if rec.count[i] > 0]
    out["padic.hensel_kth_root.p_exponent"] = (_slope(points), "1")
    return out


def shares(rec: Recorder, tail_quantile: float = 0.9):
    """Self-time share per function over all ops and over ops at or above the quantile."""
    selfs = self_times(rec)
    roots = [i for i in range(len(rec)) if rec.name[i] == 0]
    durs = sorted(rec.t1[i] - rec.t0[i] for i in roots)
    cut = durs[min(len(durs) - 1, int(tail_quantile * len(durs)))] if durs else 0
    tail_ops = {rec.op[i] for i in roots if rec.t1[i] - rec.t0[i] >= cut}
    total, tail = {}, {}
    for i, s in enumerate(selfs):
        name = NAMES[rec.name[i]]
        total[name] = total.get(name, 0) + s
        if rec.op[i] in tail_ops:
            tail[name] = tail.get(name, 0) + s

    def norm(d):
        t = sum(d.values()) or 1
        return sorted(((v / t, k) for k, v in d.items()), reverse=True)

    return norm(total), norm(tail)
