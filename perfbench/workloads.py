"""The three benchmark workloads: seeded inputs, one timed op, its check.

Every workload draws op k's inputs from its own `random.Random` seeded by
(seed, k), so a seed fixes the whole op stream and op k is the same in a
timed and a traced run.  The program receives only the generated JSON
text (through `troppencil.cli.main`) or objects built from it by the
library's exported constructors.  `run(op, timed)` wraps every program
call in `with timed:`; everything else (input preparation, decoding
outputs, checks) happens outside the timed span.  A workload is built
once per set-up; `segment` numbers the set-ups of one run, and only
type-roundtrip, which draws its inputs at set-up, uses it.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations

# Degree-3 lattice triangle: the (r, s) exponents of a plane cubic.
CUBIC = [(r, s) for r in range(4) for s in range(4 - r)]


class CheckFailed(Exception):
    """An op's output failed its check."""


class Program:
    """troppencil imported afresh from the checkout's sources."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "troppencil" or m.startswith("troppencil.")]:
            del sys.modules[name]
        self.lib = importlib.import_module("troppencil")
        self.cli = importlib.import_module("troppencil.cli")

    def call(self, argv, text):
        """One CLI invocation in process: `text` on stdin, stdout returned."""
        stdin, stdout = io.StringIO(text), io.StringIO()
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = stdin, stdout
        try:
            code = self.cli.main(argv)
        finally:
            sys.stdin, sys.stdout = saved
        return code, stdout.getvalue()

    def line(self, obj):
        """An EmbeddedLine from the CLI's line JSON, via exported constructors."""
        adj, lengths = {}, {}
        for e in obj["edges"]:
            a, b = e["a"], e["b"]
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
            if e["length"] is not None:
                lengths[frozenset((a, b))] = Fraction(e["length"])
        topo = self.lib.TreeTopology(obj["n"], adj)
        anchor = obj["anchor"]
        return self.lib.embed(topo, lengths, anchor["node"], [Fraction(c) for c in anchor["coords"]])

    def point(self, coords):
        return self.lib.ProjPoint([Fraction(c) for c in coords])

    def support(self, obj):
        return self.lib.SupportSet(obj["degree"], tuple(tuple(p) for p in obj["points"]))


def op_rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}/{k}")


def rat_json(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def cubic_support(rng, n) -> dict:
    """n distinct exponents of the cubic triangle, not all collinear."""
    while True:
        pts = rng.sample(CUBIC, n)
        p0 = pts[0]
        if any(
            (q[0] - p0[0]) * (r[1] - p0[1]) != (q[1] - p0[1]) * (r[0] - p0[0])
            for q, r in combinations(pts[1:], 2)
        ):
            return {"degree": 3, "points": [[r, s, 3 - r - s] for r, s in pts]}


def random_line(rng, n, contract_p) -> dict:
    """Line JSON: a random trivalent tree by leaf insertion, each internal
    edge contracted with probability `contract_p`, random positive lengths
    and a random anchor."""
    adj = {1: {n + 1}, 2: {n + 1}, 3: {n + 1}, n + 1: {1, 2, 3}}
    for m in range(4, n + 1):
        x, y = rng.choice(sorted((a, b) for a in adj for b in adj[a] if a < b))
        z = n + m - 2
        adj[x].discard(y)
        adj[y].discard(x)
        adj[x].add(z)
        adj[y].add(z)
        adj[z] = {x, y, m}
        adj[m] = {z}
    for a, b in sorted((a, b) for a in adj for b in adj[a] if n < a < b):
        if rng.random() < contract_p and b in adj.get(a, ()):
            for w in adj.pop(b) - {a}:
                adj[w].discard(b)
                adj[w].add(a)
                adj[a].add(w)
            adj[a].discard(b)
    edges = [
        {
            "a": a,
            "b": b,
            "length": None if a <= n else rat_json(Fraction(rng.randint(1, 8), rng.randint(1, 3))),
        }
        for a in sorted(adj)
        for b in sorted(adj[a])
        if a < b
    ]
    internal = sorted(v for v in adj if v > n)
    return {
        "n": n,
        "edges": edges,
        "leaf_map": {str(i): next(iter(adj[i])) for i in range(1, n + 1)},
        "anchor": {
            "node": rng.choice(internal),
            "coords": [rat_json(Fraction(rng.randint(-10, 10), rng.randint(1, 2))) for _ in range(n)],
        },
    }


class Op:
    """One op's inputs: the kind label, JSON text for the CLI and what
    `run` and `check` need besides."""

    def __init__(self, kind, text, **extra):
        self.kind = kind
        self.text = text
        self.__dict__.update(extra)


class StablePencil:
    """Forward direction: configuration -> minors -> Pluecker vector -> tree.

    Ops with k % 4 == 3 use n = 9, the rest n = 7; blocks of four ops
    alternate between generic rational points and small integer points in
    [-3, 3]^2, which tie minors and take the stable-limit path.
    """

    name = "stable-pencil"

    def __init__(self, prog, seed, segment=0):
        self.prog, self.seed = prog, seed

    def make(self, k) -> Op:
        rng = op_rng(self.seed, k)
        n = 9 if k % 4 == 3 else 7
        general = (k // 4) % 2 == 0
        support = cubic_support(rng, n)
        if general:
            pts = set()
            while len(pts) < n - 2:
                pts.add((Fraction(rng.randint(-60, 60), rng.randint(1, 7)),
                         Fraction(rng.randint(-60, 60), rng.randint(1, 7))))
            pts = [[rat_json(x), rat_json(y), 0] for x, y in sorted(pts)]
        else:
            grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
            pts = [[x, y, 0] for x, y in rng.sample(grid, n - 2)]
        payload = {"support": support, "configuration": {"points": pts}}
        kind = f"n{n}-{'general' if general else 'integer'}"
        return Op(kind, json.dumps(payload), support=support, points=pts)

    def run(self, op, timed):
        with timed:
            return self.prog.call(["stable-pencil"], op.text)

    def check(self, op, result):
        code, text = result
        if code != 0:
            raise CheckFailed(f"exit {code}: {text.strip()}")
        out = json.loads(text)
        lib = self.prog.lib
        L = self.prog.line(out["line"])
        n = len(op.support["points"])
        p = lib.PlueckerVector(
            n, {tuple(int(i) for i in key.split(",")): Fraction(v) for key, v in out["plucker"].items()}
        )
        if lib.tree_to_plucker(L) != p:
            raise CheckFailed("tree_to_plucker(line) differs from the returned plucker")
        A = self.prog.support(op.support)
        for P in op.points:
            if not lib.is_fixed(L, A, self.prog.point(P)):
                raise CheckFailed(f"configuration point {P} is not fixed on the line")


class FixedLocus:
    """Fixed-locus questions about one random pencil per op.

    n cycles through 6, 7, 8; every other block of three ops contracts
    internal edges.  A pencil whose locus has a segment with a non-integer
    span is redrawn (see `lattice_segments`).  The op is one `fixed-locus`
    CLI call, then 32 `is_fixed` queries on the in-memory line (the
    locus's points and segment midpoints, topped up with random points)
    and `pi_gamma` of the translate at each fixed point.
    """

    name = "fixed-locus"
    QUERIES = 32

    def __init__(self, prog, seed, segment=0):
        self.prog, self.seed = prog, seed
        self.redrawn = {}  # op index -> pencils drawn and rejected for it

    def lattice_segments(self, support, line) -> bool:
        """Whether every segment of the pencil's fixed locus spans an integer
        vector.  `plane.canonical_pieces` turns a segment's span into a
        direction with `core.primitive`, which truncates each entry with
        `int()`: a span such as (1/3, 0) raises "zero vector has no
        primitive form" and (3/2, 1/2) silently becomes (1, 0).  Pencils
        with such a segment are redrawn, and their count is reported; this
        runs on objects of its own, outside the op."""
        L, A = self.prog.line(line), self.prog.support(support)
        for cell in self.prog.lib.fixed_locus(L, A):
            g = cell.geometry
            if hasattr(g, "end") and any((e - s).denominator != 1 for s, e in zip(g.start, g.end)):
                return False
        return True

    def make(self, k) -> Op:
        rng = op_rng(self.seed, k)
        n = (6, 7, 8)[k % 3]
        contracted = (k // 3) % 2 == 1
        rejected = 0
        while True:
            support = cubic_support(rng, n)
            line = random_line(rng, n, 0.4 if contracted else 0.0)
            if self.lattice_segments(support, line):
                break
            rejected += 1
        if rejected:
            self.redrawn[k] = rejected
        payload = {"support": support, "line": line}
        kind = f"n{n}-{'contracted' if contracted else 'trivalent'}"
        return Op(
            kind,
            json.dumps(payload),
            A=self.prog.support(support),
            L=self.prog.line(line),
            rng=rng,
        )

    def queries(self, op, out) -> list:
        pts = []
        for g in out["pieces"]:
            if g["kind"] == "point":
                pts.append([Fraction(c) for c in g["coords"]])
            elif g["kind"] == "segment":
                s, e = ([Fraction(c) for c in g[key]] for key in ("start", "end"))
                pts.append([(a + b) / 2 for a, b in zip(s, e)])
        pts = pts[: self.QUERIES]
        while len(pts) < self.QUERIES:
            pts.append([Fraction(op.rng.randint(-12, 12), op.rng.randint(1, 3)) for _ in range(2)] + [0])
        return [self.prog.point(P) for P in pts]

    def run(self, op, timed):
        lib = self.prog.lib
        with timed:
            code, text = self.prog.call(["fixed-locus"], op.text)
        if code != 0:
            return code, text, []
        points = self.queries(op, json.loads(text))
        answers = []
        with timed:
            for P in points:
                fixed = lib.is_fixed(op.L, op.A, P)
                if fixed:
                    lib.pi_gamma(lib.shifted_line(op.L, op.A, P))
                answers.append((P, fixed))
        return code, text, answers

    def check(self, op, result):
        code, text, answers = result
        if code != 0:
            raise CheckFailed(f"exit {code}: {text.strip()}")
        cells = [
            ([tuple(map(Fraction, f)) for f in c["eq"]], [tuple(map(Fraction, f)) for f in c["ineq"]])
            for c in json.loads(text)["cells"]
        ]
        for P, fixed in answers:
            x, y = P[0], P[1]
            inside = any(
                all(a * x + b * y + c == 0 for a, b, c in eq) and all(a * x + b * y + c >= 0 for a, b, c in ineq)
                for eq, ineq in cells
            )
            if inside != fixed:
                raise CheckFailed(f"is_fixed says {fixed} at {P}, the returned cells say {inside}")


class TypeRoundtrip:
    """Reverse direction: compatible tree type -> line -> configuration.

    Set-up draws seven supports at n = 6 and 14 at n = 7 and lists their
    compatible type ids with one `enumerate-types` call each; each set-up
    of a run (`segment`) draws its own.  Costs differ from support to
    support, so fewer supports per run make the figures depend on the
    seed.  With one op in three at n = 6, p50 falls inside the n = 7 ops
    instead of in the gap between the two sizes.  Op k takes support
    k % 21 and a random compatible type: `realize-type`, then
    `construct-config` on the returned line.
    """

    name = "type-roundtrip"
    SUPPORTS = (6, 7, 7) * 7

    def __init__(self, prog, seed, segment=0):
        self.prog, self.seed = prog, seed
        self.supports = []  # (support JSON, compatible type ids)
        rng = random.Random(f"{seed}/supports/{segment}")
        for n in self.SUPPORTS:
            ids = []
            while not ids:
                support = cubic_support(rng, n)
                code, text = prog.call(["enumerate-types"], json.dumps({"support": support}))
                if code != 0:
                    raise RuntimeError(f"enumerate-types exited {code}: {text.strip()}")
                ids = [i for i, t in enumerate(json.loads(text)["types"]) if t["compatible"]]
            self.supports.append((support, ids))

    def make(self, k) -> Op:
        rng = op_rng(self.seed, k)
        support, ids = self.supports[k % len(self.supports)]
        type_id = rng.choice(ids)
        payload = {"support": support, "type_id": type_id}
        n = len(support["points"])
        return Op(f"n{n}", json.dumps(payload), support=support, draw_seed=str(rng.randrange(1000)))

    def run(self, op, timed):
        with timed:
            code, line_text = self.prog.call(["realize-type", "--seed", op.draw_seed], op.text)
        if code != 0:
            return code, line_text, None
        line = json.loads(line_text)
        request = json.dumps({"support": op.support, "line": line})
        with timed:
            code, config_text = self.prog.call(["construct-config"], request)
        return code, config_text, line

    def check(self, op, result):
        code, text, line = result
        if code != 0:
            raise CheckFailed(f"exit {code}: {text.strip()}")
        pts = json.loads(text)["points"]
        n = len(op.support["points"])
        if len(pts) != n - 2:
            raise CheckFailed(f"configuration has {len(pts)} points, want {n - 2}")
        A = self.prog.support(op.support)
        C = [self.prog.point(P) for P in pts]
        if self.prog.lib.stable_pencil(A, C) != self.prog.line(line):
            raise CheckFailed("stable pencil of the configuration differs from the realized line")


WORKLOADS = {w.name: w for w in (StablePencil, FixedLocus, TypeRoundtrip)}
