"""Seeded problem generator: problem texts in the schema-1 format.

Everything here is plain Python integers and strings; nothing is computed by
the package under test.  The same (workload, seed) always yields the same
sequence of byte-identical problem texts, and a problem's text depends only
on the seed and its position in the stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

PRIME = 32003
FP = f"Fp:{PRIME}"
QQ_BOUND = 10
#: seed kept aside for later performance claims; never used while tuning
HELD_OUT_SEED = 20261017

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "src" / "detschemes" / "fixtures"
FIXTURE_NAMES = (
    "double_point",
    "cubic_curve",
    "coordinate_axes",
    "ci_codim2",
    "ci_codim3",
    "generic_2x4",
)


@dataclass(frozen=True)
class Shape:
    """Traffic dimensions of one generic problem class.

    Entry (i, j) is a dense random form of degree col_twists[j] - row_twists[i].
    """

    field: str
    nvars: int
    row_twists: tuple
    col_twists: tuple
    d_max: int = 10

    @property
    def t(self):
        return len(self.row_twists)

    @property
    def r(self):
        return len(self.col_twists) - len(self.row_twists)

    @property
    def label(self):
        degs = sorted({b - a for a in self.row_twists for b in self.col_twists})
        deg = "-".join(str(d) for d in degs)
        field = "QQ" if self.field == "QQ" else "Fp"
        label = f"{field}/P{self.nvars - 1}/{self.t}x{self.t + self.r}/deg{deg}"
        return label if self.d_max == 10 else f"{label}/d{self.d_max}"


@dataclass(frozen=True)
class Problem:
    """One generated input: its text plus what the references need."""

    pid: int
    kind: str  # "generic", "fixture" or "repeat"
    label: str
    field: str
    nvars: int
    row_twists: tuple
    col_twists: tuple
    text: str
    fixture: str = None

    @property
    def t(self):
        return len(self.row_twists)

    @property
    def r(self):
        return len(self.col_twists) - len(self.row_twists)

    def repeated(self, pid):
        """The same text re-submitted verbatim at stream position pid."""
        return Problem(pid, "repeat", self.label, self.field, self.nvars,
                       self.row_twists, self.col_twists, self.text, self.fixture)


def shape(field, nvars, degrees_or_twists, cols=None, d_max=10):
    """Shape from (t, t+r, entry degree) or from explicit row and column twists."""
    if cols is None:
        t, n_cols, deg = degrees_or_twists
        return Shape(field, nvars, (0,) * t, (deg,) * n_cols, d_max)
    return Shape(field, nvars, tuple(degrees_or_twists), tuple(cols), d_max)


# -- polynomials as {exponent tuple: int} ------------------------------------------


def monomials(nvars, d):
    """Exponent tuples of total degree d, lexicographically decreasing."""
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d, -1, -1):
        out.extend((e,) + rest for rest in monomials(nvars - 1, d - e))
    return out


def random_form(rng, field, nvars, degree):
    """Dense random form; never zero."""
    while True:
        if field == "QQ":
            terms = {m: rng.randint(-QQ_BOUND, QQ_BOUND) for m in monomials(nvars, degree)}
        else:
            terms = {m: rng.randrange(PRIME) for m in monomials(nvars, degree)}
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            return terms


def format_poly(terms, names):
    if not terms:
        return "0"
    out = []
    for m in sorted(terms, reverse=True):
        c = terms[m]
        mono = "*".join(
            names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(m) if e
        )
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def problem_text(field, nvars, row_twists, col_twists, entries, seed, d_max, comment):
    names = [f"x{i}" for i in range(nvars)]
    lines = [
        f"# {comment}",
        "schema: 1",
        "ring.vars: " + ", ".join(names),
        f"ring.field: {field}",
        "ring.order: grevlex",
        "matrix.row_twists: " + ", ".join(str(a) for a in row_twists),
        "matrix.col_twists: " + ", ".join(str(b) for b in col_twists),
        "matrix.entries:",
    ]
    for row in entries:
        lines.append("  " + " | ".join(format_poly(p, names) for p in row))
    lines.append(f"seed: {seed}")
    lines.append(f"d_max: {d_max}")
    return "\n".join(lines) + "\n"


def generic_problem(pid, shp, rng):
    entries = [
        [random_form(rng, shp.field, shp.nvars, b - a) for b in shp.col_twists]
        for a in shp.row_twists
    ]
    text = problem_text(
        shp.field, shp.nvars, shp.row_twists, shp.col_twists, entries,
        rng.randrange(2**31), shp.d_max, f"generic {shp.label}",
    )
    return Problem(pid, "generic", shp.label, shp.field, shp.nvars,
                   shp.row_twists, shp.col_twists, text)


# -- bundled fixtures under a seeded linear change of coordinates ---------------------


def _parse_linear(text, nvars):
    """Integer linear form 'c*xi + ...' (the fixture entries) as a coefficient list."""
    coeffs = [0] * nvars
    text = text.replace(" ", "")
    if text == "0":
        return coeffs
    if text[0] not in "+-":
        text = "+" + text
    i = 0
    while i < len(text):
        sign = -1 if text[i] == "-" else 1
        j = i + 1
        while j < len(text) and text[j] not in "+-":
            j += 1
        term = text[i + 1:j]
        if "*" in term:
            c, var = term.split("*")
            c = int(c)
        else:
            c, var = 1, term
        if not (var.startswith("x") and var[1:].isdigit()):
            raise ValueError(f"fixture entry {text!r} is not an integer linear form")
        coeffs[int(var[1:])] += sign * c
        i = j
    return coeffs


def load_fixtures():
    """name -> (nvars, linear entry coefficient lists, golden verdict dict)."""
    out = {}
    for name in FIXTURE_NAMES:
        fields, rows, in_matrix = {}, [], False
        for raw in (FIXTURE_DIR / f"{name}.problem").read_text().splitlines():
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if in_matrix and line[0] in " \t":
                rows.append([cell.strip() for cell in line.split("|")])
                continue
            in_matrix = False
            key, _, value = line.partition(":")
            if key.strip() == "matrix.entries":
                in_matrix = True
            else:
                fields[key.strip()] = value.strip()
        if fields.get("ring.field", "QQ") != "QQ":
            raise ValueError(f"fixture {name} is not over QQ")
        nvars = len(fields["ring.vars"].split(","))
        entries = [[_parse_linear(cell, nvars) for cell in row] for row in rows]
        golden = json.loads((FIXTURE_DIR / "golden" / f"{name}.json").read_text())
        out[name] = (nvars, entries, golden)
    return out


def _int_det(rows):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def coordinate_change(rng, nvars, bound=2):
    """Seeded invertible integer matrix A; x_i is replaced by sum_j A[i][j] x_j."""
    while True:
        a = [[rng.randint(-bound, bound) for _ in range(nvars)] for _ in range(nvars)]
        if _int_det(a) != 0:
            return a


def fixture_problem(pid, name, fixtures, rng):
    nvars, entries, _ = fixtures[name]
    a = coordinate_change(rng, nvars)
    moved = []
    for row in entries:
        out_row = []
        for coeffs in row:
            new = [sum(coeffs[i] * a[i][j] for i in range(nvars)) for j in range(nvars)]
            out_row.append({
                tuple(1 if k == j else 0 for k in range(nvars)): c
                for j, c in enumerate(new) if c
            })
        moved.append(out_row)
    t, f = len(entries), len(entries[0])
    text = problem_text(
        "QQ", nvars, (0,) * t, (1,) * f, moved, 42, 10,
        f"fixture {name} under a seeded linear change of coordinates",
    )
    return Problem(pid, "fixture", f"fixture/{name}", "QQ", nvars,
                   (0,) * t, (1,) * f, text, fixture=name)


# -- streams --------------------------------------------------------------------------


class Stream:
    """Deterministic, lazily extended problem sequence of one workload.

    Problems come in blocks; each block is one fixed multiset of slots
    (a shape, a fixture name, or "repeat") in a seeded order, so every run
    sees the same mix whatever its seed.  Problem i depends only on the seed
    and i, never on how far another run got.
    """

    def __init__(self, seed, block, salt=""):
        self.seed = seed
        self.block = tuple(block)
        self.salt = salt
        self.problems = []
        self._fixtures = None

    def _rng(self, *key):
        return random.Random(repr((self.salt, self.seed) + key))

    def __getitem__(self, i):
        while len(self.problems) <= i:
            self._extend()
        return self.problems[i]

    def _extend(self):
        b = len(self.problems) // len(self.block)
        order = list(self.block)
        self._rng("order", b).shuffle(order)
        if order[0] == "repeat" and not self.problems:
            # the very first problem has nothing earlier to repeat
            k = next(i for i, s in enumerate(order) if s != "repeat")
            order[0], order[k] = order[k], order[0]
        for slot in order:
            pid = len(self.problems)
            rng = self._rng("problem", pid)
            if slot == "repeat":
                fresh = [p for p in self.problems if p.kind != "repeat"]
                prob = fresh[rng.randrange(len(fresh))].repeated(pid)
            elif isinstance(slot, str):
                if self._fixtures is None:
                    self._fixtures = load_fixtures()
                prob = fixture_problem(pid, slot, self._fixtures, rng)
            else:
                prob = generic_problem(pid, slot, rng)
            self.problems.append(prob)
