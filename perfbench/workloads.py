"""The four benchmark workloads: inputs, the timed op, and its exact check.

Every workload is a closed loop with one caller: an op is issued only
after the previous one returned and was checked.  Inputs are drawn from
the seed by the benchmark's own generators and handed to the library as
values built through the public value grammar, so the inputs stay fixed
even if the library's own sampling helpers change.

Library functions are always looked up through their modules at call
time (``dynamics.apply_F``, not a name bound at import), so the traced
run sees every call the op makes.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from cuspdyn import dynamics, exact, flow_oracle, moebius, tessellation, transfer

import reference

SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26)


def draw_surd(rng: random.Random, lo, hi, d: int, b_max: int = 9, c_range=(40, 400)):
    """A surd over sqrt(d) strictly inside (lo, hi); either end may be None.

    A unit surd u = (a + b*sqrt(d))/c in (0, 1) is mapped affinely onto a
    bounded interval, and by lo + u/(1-u) or hi - u/(1-u) onto a half-line.
    """
    while True:
        b = rng.choice((-1, 1)) * rng.randint(1, b_max)
        c = rng.randint(*c_range)
        root = math.isqrt(b * b * d)
        fl = root if b > 0 else -(root + 1)  # floor(b*sqrt(d)); never exact
        a_lo, a_hi = -fl, c - fl - 1  # then 0 < a + b*sqrt(d) < c
        if a_lo <= a_hi:
            break
    a = rng.randint(a_lo, a_hi)
    if lo is not None and hi is not None:
        q, r = lo + (hi - lo) * Fraction(a, c), (hi - lo) * Fraction(b, c)
    else:
        den = (c - a) ** 2 - b * b * d  # u/(1-u) rationalized by the conjugate
        q, r = Fraction(a * (c - a) + b * b * d, den), Fraction(b * c, den)
        q, r = (lo + q, r) if lo is not None else (hi - q, -r)
    n = math.lcm(q.denominator, r.denominator)
    return exact.parse_value(f"surd:({q * n}+{r * n}*sqrt({d}))/{n}")


def _end(value) -> Fraction | None:
    return None if value is None else Fraction(value.numerator, value.denominator)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _table(key):
    return dynamics.modular_table() if key == "modular" else dynamics.branch_table(key)


class Workload:
    """Interface of a workload; see the subclasses for what each one stresses.

    A run makes passes over a corpus of inputs, each in a new seeded
    order, and times every op; an input's latency is the fastest of its
    runs.
    """

    name: str
    CORPUS_SIZE: int
    MIN_RUNS = 2  # runs of every input in a timed run, however costly
    defects: set | frozenset = frozenset()  # keys of inputs that meet a known defect

    def setup(self) -> dict:
        """Build tables and warm caches; returns facts to record."""
        raise NotImplementedError

    def corpus(self, seed: int) -> list:
        """The inputs of a run, drawn from the seed."""
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, key: int, inp, out, corrupt: bool) -> bool:
        """Exact check of one op's output; corrupt falsifies the reference."""
        raise NotImplementedError

    def emit(self, inp, out) -> str:
        """The op's results in the library's own output encoding."""
        raise NotImplementedError


class Coding(Workload):
    """code_future to period or cusp; modular codings then accelerate_to_cf.

    Stresses exact -> moebius.apply_boundary -> dynamics.apply_F over long
    parabolic runs with growing coefficients.  Per-orbit cost is heavy
    tailed (a few orbits take half the time), so a seed-drawn set of the
    size a run can afford spreads by about half across seeds.  The corpus
    is therefore drawn once from CORPUS_SEED; the run seed only orders it.
    """

    name = "coding"
    CORPUS_SEED = 6
    CORPUS_SIZE = 48
    MAX_STEPS = 10**6
    KINDS = ("modular-surd", "modular-rational", "gamma0(2)", "gamma0(5)")

    def setup(self) -> dict:
        self.tables = {k: _table(k) for k in ("modular", 2, 5)}
        self.rows = {k: reference.branch_rows(t) for k, t in self.tables.items()}
        self._refs: dict = {}
        golden = exact.parse_value("surd:(1+1*sqrt(5))/2")
        for key in ("modular", 2, 5):
            dynamics.code_future(self.tables[key], golden, 64)
        return {}

    def corpus(self, seed: int) -> list:
        rng = random.Random(self.CORPUS_SEED)
        items = []
        for i in range(self.CORPUS_SIZE):
            kind = self.KINDS[i % len(self.KINDS)]
            if kind == "modular-surd":  # the acceptance criterion-6 distribution
                x = draw_surd(rng, Fraction(1), Fraction(50), rng.choice(SQUAREFREE),
                              b_max=4, c_range=(5, 40))
                pre, per = reference.cf_surd(x.a, x.b, x.c, x.d)
                items.append(("modular", x, pre + per))
            elif kind == "modular-rational":
                r = Fraction(rng.randint(2, 2500), rng.randint(1, 50))
                while not 1 < r < 50:
                    r = Fraction(rng.randint(2, 2500), rng.randint(1, 50))
                items.append(("modular", exact.parse_value(f"rat:{r.numerator}/{r.denominator}"),
                              reference.cf_rational(r)))
            else:  # small-coefficient surds in (-2, 2) for Gamma_0(p)
                p = 2 if kind == "gamma0(2)" else 5
                m = rng.randint(-2 * p, 2 * p - 1)
                x = draw_surd(rng, Fraction(m, p), Fraction(m + 1, p), rng.choice(SQUAREFREE),
                              b_max=4, c_range=(5, 40))
                items.append((p, x, None))
        return items

    def op(self, inp):
        key, x, want = inp
        seq = dynamics.code_future(self.tables[key], x, self.MAX_STEPS)
        if key != "modular":
            return seq, None
        return seq, dynamics.accelerate_to_cf(seq, max_digits=2 * len(want) + 16)

    def check(self, key, inp, out, corrupt: bool) -> bool:
        table_key, x, want = inp
        seq, cf = out
        ref = self._refs.get(key)
        if ref is None:
            ref = self._refs[key] = reference.slow_map_coding(
                self.rows[table_key], table_key == "modular", x, self.MAX_STEPS)
        letters = ref["letters"]
        if corrupt and want is None:
            letters = letters[:-1] + ["corrupted"]
        term = seq.termination
        ok = (
            term.kind == ref["kind"] in ("periodic", "cusp")
            and term.step == ref["step"]
            and list(seq.letters) == letters
            and (term.kind != "periodic"
                 or (term.preperiod, term.period) == (ref["preperiod"], ref["period"]))
            and (term.kind != "cusp" or reference.state_of(term.at) == ref["at"])
        )
        if want is None:
            return ok
        want = list(want)
        if corrupt:
            want[-1] += 1
        if term.kind == "cusp":
            return ok and cf.complete and list(cf.digits) == want
        return ok and cf.expand(len(want)) == want

    def emit(self, inp, out) -> str:
        seq, cf = out
        return _dump([seq.to_json(), None if cf is None else cf.to_json()])


class Conjugacy(Workload):
    """Oracle first return and previous exterior against the generating map.

    Section pairs over Gamma_0(p), p in {2, 3, 5, 13}, and the modular
    preset at the default oracle bounds.  Forward: the oracle's letter,
    translate and renormalized endpoints equal one apply_F.  Backward:
    the previous exterior's letter is the first past letter of
    code_two_sided(x, y, 1, 1), and apply_F of its renormalized forward
    endpoint returns exactly (x, letter).  Exercises the numpy prefilter,
    same-field exact compares and the per-p branch scan; each op does
    bounded work, and the family builds land in set-up.
    """

    name = "conjugacy"
    CORPUS_SIZE = 200
    GROUPS = (2, 3, 5, 13, "modular")

    def setup(self) -> dict:
        self.tables = {k: _table(k) for k in self.GROUPS}
        self.rows = {k: self._pair_rows(t) for k, t in self.tables.items()}
        t0 = time.perf_counter()
        rng = random.Random(0)
        for k in self.GROUPS:  # builds each oracle family once
            self.op(self._draw(rng, k, 0))
        return {"warmup_s": time.perf_counter() - t0}

    @staticmethod
    def _pair_rows(table) -> list:
        rows = []
        for rec in table.branches:
            y_hi = _end(rec.y_interval.hi)
            if rec.rep_dir == +1:  # a representative crossing needs y < rep_line
                y_hi = rec.rep_line if y_hi is None else min(y_hi, rec.rep_line)
            rows.append((_end(rec.interval.lo), _end(rec.interval.hi),
                         _end(rec.y_interval.lo), y_hi))
        return rows

    def _draw(self, rng: random.Random, group, i: int):
        rows = self.rows[group]
        x_lo, x_hi, y_lo, y_hi = rows[i % len(rows)]
        d = rng.choice(SQUAREFREE)
        return group, draw_surd(rng, x_lo, x_hi, d), draw_surd(rng, y_lo, y_hi, d)

    def corpus(self, seed: int) -> list:
        rng = random.Random(seed)
        g = len(self.GROUPS)  # every group in turn, each through its branches
        return [self._draw(rng, self.GROUPS[i % g], i // g) for i in range(self.CORPUS_SIZE)]

    def op(self, inp):
        group, x, y = inp
        table = self.tables[group]
        sp = flow_oracle.canonical_section_point(table, x, y)
        ret = flow_oracle.first_return_geometric(sp, table)
        x1, letter = dynamics.apply_F(table, x)
        y1 = table.branch(letter).h.inv().apply_boundary(y)
        prev = flow_oracle.previous_exterior_geometric(sp, table)
        past = dynamics.code_two_sided(table, x, y, 1, 1)
        back = dynamics.apply_F(table, prev.renormalized.geodesic.forward)
        return ret, (x1, letter, y1), prev, past, back

    def check(self, key, inp, out, corrupt: bool) -> bool:
        _, x, _ = inp
        ret, (x1, letter, y1), prev, past, back = out
        rec = self.tables[inp[0]].branch(letter)
        want_prev = past.letters[0] if past.origin == 1 else None
        if corrupt:
            letter = "corrupted"
        return (
            ret.letter == letter
            and ret.translate == rec.h
            and ret.renormalized.geodesic.forward == x1
            and ret.renormalized.geodesic.backward == y1
            and prev.letter is not None
            and prev.letter == want_prev
            and back[0] == x
            and back[1] == prev.letter
        )

    def emit(self, inp, out) -> str:
        ret, (x1, letter, y1), prev, past, back = out
        return _dump([ret.to_json(), prev.to_json(), past.to_json(),
                      exact.emit_value(back[0]), dynamics.label_to_json(back[1])])


class Spectrum(Workload):
    """One collocation_matrix build plus eigenvalues() per op.

    The grid is modular / p=5 / p=13 x nodes {16, 32, 64} x beta in
    {1.0, 1.5, BETA_COMPLEX}; the seed only orders it.  The float and
    LAPACK path: the exact kernel is bypassed.  Checks: every eigenvalue
    is finite, and the modular beta=1 operator reproduces 1/x to 1e-8.
    Slow-map spectra do not converge, so there are no eigenvalue
    references.
    """

    name = "spectrum"
    GROUPS = ("modular", 5, 13)
    NODES = (16, 32, 64)
    # Fixed: LAPACK's iteration count depends on beta, and a seed-drawn
    # complex beta moved the tail op's time by up to 20% between seeds.
    BETA_COMPLEX = complex(1.0, 0.5)
    # The largest eigvals take 0.7-1.5 s, most of a pass, and set
    # ops_per_s; the fastest of two runs of them spread by 12% across
    # seeds, of four by 4%, but four left too few runs for the 20-50 ms
    # ops that set op_p50_ms and op_tail_ms.
    MIN_RUNS = 3
    CORPUS_SIZE = len(GROUPS) * len(NODES) * 3
    INVX_TOL = 1e-8

    def setup(self) -> dict:
        self.tables = {k: _table(k) for k in self.GROUPS}
        rng = np.random.default_rng(0)
        for dtype in (float, complex):  # the first LAPACK call pays its own set-up
            np.linalg.eigvals(rng.standard_normal((128, 128)).astype(dtype))
        transfer.collocation_matrix(self.tables["modular"], 1.0, 16).eigenvalues()
        return {}

    def corpus(self, seed: int) -> list:
        betas = (1.0, 1.5, self.BETA_COMPLEX)
        return [(g, n, b) for g in self.GROUPS for n in self.NODES for b in betas]

    def op(self, inp):
        group, nodes, beta = inp
        op = transfer.collocation_matrix(self.tables[group], beta, nodes)
        return op, op.eigenvalues()

    def check(self, key, inp, out, corrupt: bool) -> bool:
        group, nodes, beta = inp
        op, vals = out
        dim = nodes * len(self.tables[group].branches) + (1 if corrupt else 0)
        ok = op.matrix.shape[0] == len(vals) == dim and bool(np.all(np.isfinite(vals)))
        if group == "modular" and beta == 1.0:
            w, x = op.node_weight, op.node_x
            got = (op.matrix @ (w / x)) / w
            ok = ok and float(np.max(np.abs(got * x - 1.0))) <= self.INVX_TOL
        return ok

    def emit(self, inp, out) -> str:
        _, vals = out
        return _dump([[round(z.real, 12), round(z.imag, 12)] for z in vals[:8]])


class Tiling(Workload):
    """reduce_point_detailed plus locate_cell on seeded rational points.

    Points as in acceptance criterion 8, for Gamma_0(p), p in {2, 5, 13},
    and the modular preset.  The only user of moebius.apply_hpoint and of
    tessellation.  Checked exactly: the reduced point is the image of z,
    it satisfies the closure inequalities, and the located cell contains
    the pulled-back point (strictly unless flagged as boundary).  Inputs
    that meet the one known defect are listed in ``defects``.
    """

    name = "tiling"
    CORPUS_SIZE = 500
    GROUPS = (2, 5, 13, None)  # None: the modular preset

    def setup(self) -> dict:
        self.defects: set = set()
        rng = random.Random(0)
        for i in range(len(self.GROUPS)):
            self.op(self._draw(rng, i))
        return {}

    def _draw(self, rng: random.Random, i: int):
        zx = Fraction(rng.randint(-5000, 15000), 10**4)
        zy = Fraction(rng.randint(1, 2 * 10**4), 10**4)
        return self.GROUPS[i % len(self.GROUPS)], moebius.HPoint(zx, zy * zy)

    def corpus(self, seed: int) -> list:
        rng = random.Random(seed)
        return [self._draw(rng, i) for i in range(self.CORPUS_SIZE)]

    def op(self, inp):
        p, z = inp
        modular = p is None
        q = 1 if modular else p
        return (tessellation.reduce_point_detailed(q, z, modular=modular),
                tessellation.locate_cell(q, z, modular=modular))

    def check(self, key, inp, out, corrupt: bool) -> bool:
        p, z = inp
        (g, w, steps), (gc, k, boundary) = out
        x, y2 = reference.apply_hpoint((g.a, g.b, g.c, g.d), z.x, z.y2)
        if corrupt:
            x += 1
        if (x, y2) != (w.x, w.y2) or g.a * g.d - g.b * g.c != 1 or not 0 <= x <= 1 or steps >= 1000:
            return False
        if p is None:
            closed = x * x + y2 >= 1 and (x - 1) ** 2 + y2 >= 1
            lo, hi = Fraction(0), Fraction(1)
        else:
            closed = g.c % p == 0 and gc.c % p == 0 and all(
                (p * x - q) ** 2 + p * p * y2 >= 1 for q in range(1, p))
            lo, hi = Fraction(k, p), Fraction(k + 1, p)
        # gc^{-1} z must lie in the ideal triangle (lo, hi, inf), in its
        # interior unless locate_cell flagged a boundary point
        cx, cy2 = reference.apply_hpoint((gc.d, -gc.b, -gc.c, gc.a), z.x, z.y2)
        t = (cx - (lo + hi) / 2) ** 2 + cy2 - ((hi - lo) / 2) ** 2
        inside = lo <= cx <= hi and t >= 0
        flag_ok = boundary or (lo < cx < hi and t > 0)
        if inside and not flag_ok and p is not None and cx in (0, 1) and t > 0:
            # Known defect: locate_cell leaves boundary False on the side walls
            # x = 0, 1 of the Gamma_0(p) domain.  Reported, not failed, so that
            # the rest of the workload stays measurable until it is fixed.
            self.defects.add(key)
            flag_ok = True
        return closed and inside and flag_ok

    def emit(self, inp, out) -> str:
        (g, w, steps), (gc, k, boundary) = out
        return _dump([tessellation.matrix_literal(g), str(w.x), str(w.y2), steps,
                      tessellation.matrix_literal(gc), k, boundary])


WORKLOADS = {w.name: w for w in (Coding, Conjugacy, Spectrum, Tiling)}
