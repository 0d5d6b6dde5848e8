"""The three workloads: what each problem runs and how it is checked.

Each workload calls the layers' public entry points bottom-up (minors, then
their Groebner basis, then the verdict that reads it, ...).  Because the
package memoizes minors, Groebner bases and verdicts per input, each span
then holds only the marginal work of its own layer.  Traced and untraced
runs make exactly the same calls; the traced run adds spans, and, inside
`instrumented()`, thin wrappers that record which package functions were
called with what.  Counting itself runs after the problem's timed region
(`Tracer.after`).

Checks compare every output against the plain-integer references in
`refs` (or the bundled golden verdicts) and report mismatches as
(layer, message) pairs.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction

from . import gen, refs
from .trace import Tracer

FP = gen.FP
S = gen.shape

#: exactness window of resolution-certify and degree bound of row-surgery's
#: annihilator check
EXACTNESS_DEGREES = tuple(range(5))
ANNIHILATOR_DEGREE = 2
#: the verdict fields of a classify report
VERDICT_KEYS = ("t", "r", "expected_codim", "actual_height", "submaximal_height",
                "is_standard", "is_good", "empty_scheme")


@contextmanager
def patched(module, name, make):
    """Replace module.name by make(original) until the block ends."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def count_ideal(tr, ideal, gb):
    tr.count("determinantal.minors_count", len(ideal.generators))
    tr.count("ring.minor_terms", sum(len(g.terms) for g in ideal.generators))
    tr.count("groebner.gb_size", len(gb.generators))
    bits = 0
    for g in gb.generators:
        for _, c in g.terms:
            if isinstance(c, Fraction):
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tr.count("field.coeff_bits_max", bits)


def count_piece(tr, phi, d, engine, limit):
    """A degree piece that grading.piece_rank ranked, and whether its rank
    went to the Groebner engine (piece_rank's own rule for engine="auto")."""
    size = phi.source.dim(d) * phi.target.dim(d)
    tr.count("grading.pieces", 1)
    tr.count("grading.groebner_pieces",
             int(engine == "groebner" or (engine == "auto" and size > limit)))
    tr.count("grading.piece_size_max", size)


class Workload:
    name = ""
    block = ()  # slots of one block: Shape, fixture name or "repeat"
    warmup = ()  # slots of the set-up warm-up (a separate stream)

    def __init__(self, ds):
        self.ds = ds  # the detschemes package

    def stream(self, seed, warmup=False):
        if warmup:
            return gen.Stream(seed, self.warmup, salt=f"{self.name}/warmup")
        return gen.Stream(seed, self.block, salt=self.name)

    def run(self, problem, tr):
        raise NotImplementedError

    def check(self, problem, out):
        raise NotImplementedError

    def instrumented(self, tr):
        """Context in which the package reports the degree pieces it ranks."""
        grading = self.ds.grading

        def make(piece_rank):
            def counted_piece_rank(phi, d, engine="auto"):
                tr.after(count_piece, phi, d, engine, grading._PIECE_AUTO_LIMIT)
                return piece_rank(phi, d, engine)
            return counted_piece_rank

        return patched(grading, "piece_rank", make)

    # -- shared bottom-up steps ------------------------------------------------------

    def parse(self, problem, tr):
        with tr.span("cli.parse"):
            return self.ds.cli.parse_problem_text(problem.text, f"problem-{problem.pid}")

    def minor_ideal(self, mat, size, tr):
        """minors(mat, size), then its reduced Groebner basis, each in its span."""
        ds = self.ds
        with tr.span("determinantal.minors"):
            ideal = ds.minors(mat, size)
        with tr.span("groebner.ensure_gb"):
            gb = ds.ensure_gb(ideal)
        tr.after(count_ideal, ideal, gb)
        return ideal

    def verdict(self, pres, tr):
        """Minors and bases of I_t and I_{t-1} first, then classify."""
        self.minor_ideal(pres, pres.t, tr)
        if pres.t > 1:
            self.minor_ideal(pres, pres.t - 1, tr)
        with tr.span("determinantal.classify"):
            return self.ds.classify(pres)

    @staticmethod
    def check_generic_verdict(problem, rep):
        """Generic inputs are standard and good with the generic heights."""
        ht, sub = refs.generic_heights(problem.t, problem.r, problem.nvars)
        got = (rep.t, rep.r, rep.expected_codim, rep.actual_height,
               rep.submaximal_height, rep.is_standard, rep.is_good)
        want = (problem.t, problem.r, problem.r + 1, ht, sub, True, True)
        return [] if got == want else [("determinantal", f"verdict {got} != {want}")]


# -- classify-stream ---------------------------------------------------------------------


class ClassifyStream(Workload):
    name = "classify-stream"
    block = (
        S("QQ", 4, (1, 2, 2)), S("QQ", 5, (1, 4, 1)), S("QQ", 4, (2, 3, 1)),
        S("QQ", 5, (0, 0), (1, 1, 2)), S("QQ", 4, (3, 4, 1)), S("QQ", 5, (2, 5, 1)),
        S(FP, 5, (1, 3, 2)), S(FP, 4, (2, 4, 1)), S(FP, 4, (2, 3, 2)),
        S(FP, 5, (3, 5, 1)), S(FP, 5, (2, 4, 1)), S(FP, 4, (3, 5, 1)),
    ) + gen.FIXTURE_NAMES + ("repeat",) * 6
    warmup = (S("QQ", 4, (2, 3, 1)), S(FP, 4, (2, 3, 1)), "cubic_curve")

    def __init__(self, ds):
        super().__init__(ds)
        self.golden = {name: g for name, (_, _, g) in gen.load_fixtures().items()}
        self.first_results = {}  # problem text -> results of its first run

    def run(self, problem, tr):
        """What `detschemes classify --json` does, through the cli's own code,
        after the bottom-up calls that fill the caches span by span."""
        cli = self.ds.cli
        started = time.perf_counter()
        spec = self.parse(problem, tr)
        self.verdict(spec.presentation, tr)
        with tr.span("cli.report"):
            results, _ = cli._cmd_classify(spec, None)
        with tr.span("cli.emit"):
            report = {"schema": cli.SCHEMA_VERSION, "command": ["classify", spec.path],
                      "spec": spec.path, "seed": spec.seed, "results": results,
                      "timing_seconds": time.perf_counter() - started}
            with redirect_stdout(io.StringIO()) as out:
                cli._emit(report, True)
        tr.after(count_witness, results)
        return {"report": out.getvalue()}

    @contextmanager
    def instrumented(self, tr):
        """Also a span around the cli's witness search."""
        def make(find_generalized_row):
            def spanned(*args, **kwargs):
                with tr.span("determinantal.witness"):
                    return find_generalized_row(*args, **kwargs)
            return spanned

        with super().instrumented(tr), patched(self.ds.cli, "find_generalized_row", make):
            yield

    def check(self, problem, out_):
        out = []
        got = json.loads(out_["report"])["results"]
        first = self.first_results.setdefault(problem.text, got)
        if got != first:
            out.append(("cli", "a repeated problem got a different report"))
        w = got.get("witness")
        if problem.fixture is None:
            ht, sub = refs.generic_heights(problem.t, problem.r, problem.nvars)
            sub = "+INF" if sub == float("inf") else sub  # as the cli writes it
            want = {"t": problem.t, "r": problem.r, "expected_codim": problem.r + 1,
                    "actual_height": ht, "submaximal_height": sub,
                    "is_standard": True, "is_good": True,
                    "empty_scheme": problem.r + 1 >= problem.nvars}
            if {k: got[k] for k in want} != want:
                out.append(("determinantal", f"generic verdict {got} != {want}"))
            if not (w and w["verified"]):
                out.append(("determinantal", "no verified witness on a generic input"))
        else:
            golden = self.golden[problem.fixture]
            if any(got[k] != golden[k] for k in VERDICT_KEYS):
                out.append(("determinantal", f"{problem.fixture}: verdict differs from golden"))
            gw = golden.get("witness")
            if (w is None) != (gw is None):
                out.append(("determinantal", f"{problem.fixture}: witness presence differs"))
            elif w is not None and (not w["verified"] or w["literal_row"] != gw["literal_row"]):
                out.append(("determinantal", f"{problem.fixture}: witness {w} vs golden {gw}"))
        return out


def count_witness(tr, results):
    if results["is_good"]:
        w = results.get("witness")
        tr.count("determinantal.witness_searches", 1)
        tr.count("determinantal.witness_found", int(w is not None))
        tr.count("determinantal.witness_generalized",
                 int(w is not None and w["literal_row"] is None))


# -- resolution-certify ------------------------------------------------------------------


class ResolutionCertify(Workload):
    name = "resolution-certify"
    block = (
        S(FP, 4, (1, 2, 1)), S(FP, 5, (1, 2, 1)), S(FP, 4, (1, 2, 2)), S(FP, 5, (1, 2, 2)),
        S(FP, 4, (1, 3, 1)), S(FP, 5, (1, 3, 1)), S(FP, 4, (1, 3, 2)), S(FP, 4, (1, 4, 1)),
        S(FP, 4, (2, 3, 1)), S(FP, 5, (2, 3, 1)), S(FP, 4, (2, 3, 2)), S(FP, 5, (2, 3, 2)),
        S(FP, 4, (0, 0), (1, 1, 2)), S(FP, 5, (0, 0), (1, 1, 2)), S(FP, 4, (0, 1), (2, 2, 2)),
        S(FP, 4, (3, 4, 1)), S(FP, 5, (3, 4, 1)),
    ) * 2 + (S(FP, 4, (2, 4, 1)),)
    warmup = (S(FP, 4, (1, 2, 1)), S(FP, 4, (2, 3, 1)))

    def certify(self, cpx, tr):
        """d∘d = 0, then minors and bases of every differential, then BE."""
        ds = self.ds
        with tr.span("complexes.dd_check"):
            dd = ds.verify_complex(cpx)
        ranks = refs.expected_ranks([m.rank for m in cpx.modules])
        for d, r_i in zip(cpx.differentials, ranks):
            if 0 < r_i <= min(d.nrows, d.ncols):
                ideal = self.minor_ideal(d, r_i, tr)
                tr.after(Tracer.count, "complexes.be_minors_count", len(ideal.generators))
        with tr.span("complexes.be"):
            be = ds.buchsbaum_eisenbud(cpx)
        return dd, ranks, be

    def run(self, problem, tr):
        ds = self.ds
        spec = self.parse(problem, tr)
        pres = spec.presentation
        with tr.span("complexes.build"):
            en = ds.eagon_northcott(pres)
        en_dd, en_ranks, en_be = self.certify(en, tr)
        verdict = self.verdict(pres, tr)
        with tr.span("complexes.betti"):
            betti = ds.betti_table(en, en_be)
            cm = ds.cm_type(pres)
        with tr.span("complexes.build"):
            br = ds.buchsbaum_rim(pres)
        br_dd, br_ranks, br_be = self.certify(br, tr)
        with tr.span("complexes.exactness"):
            exact = ds.graded_exactness_check(en, EXACTNESS_DEGREES)
        return {"verdict": verdict, "en": en, "br": br, "dd": (en_dd, br_dd), "be": (en_be, br_be),
                "expected": (en_ranks, br_ranks), "betti": betti, "cm": cm, "exact": exact}

    def check(self, problem, o):
        out = self.check_generic_verdict(problem, o["verdict"])
        a, b = problem.row_twists, problem.col_twists
        t, r = problem.t, problem.r
        for cpx, ranks, twists in ((o["en"], refs.en_ranks(t, r), refs.en_twists(a, b)),
                                   (o["br"], refs.br_ranks(t, r), refs.br_twists(a, b))):
            if list(cpx.ranks) != ranks:
                out.append(("complexes", f"{cpx.tag} ranks {cpx.ranks} != {ranks}"))
            if [sorted(m.twists) for m in cpx.modules] != twists:
                out.append(("complexes", f"{cpx.tag} twists differ from the term formula"))
        if o["dd"] != (True, True):
            out.append(("complexes", f"d∘d check {o['dd']}"))
        for be, ranks in zip(o["be"], o["expected"]):
            want = [(i + 1, r_i, r_i) for i, r_i in enumerate(ranks)]
            got = [(e.position, e.expected_rank, e.computed_rank) for e in be.entries]
            if not be.passed or got != want:
                out.append(("complexes", f"Buchsbaum-Eisenbud {got} != {want}"))
        if o["betti"].cells != refs.betti_cells(refs.en_twists(a, b)):
            out.append(("complexes", "Betti table differs from the EN terms"))
        if o["cm"] != refs.cm_type(t, r):
            out.append(("complexes", f"cm_type {o['cm']} != {refs.cm_type(t, r)}"))
        exact = o["exact"]
        if not exact.all_exact or len(exact.entries) != len(EXACTNESS_DEGREES) * (r + 1):
            out.append(("grading", "graded exactness check failed"))
        return out


# -- row-surgery ---------------------------------------------------------------------------


class RowSurgery(Workload):
    name = "row-surgery"
    # Costs overlap so that the median falls in the middle of the ten slots
    # that cost about the same (those of the second and third tuples) and the
    # 90th percentile in the middle of the next dearer five; the one window
    # past the engine switch (d_max 7) is the rarest and dearest slot.  A
    # block takes about 4.5 s, so a 20 s run is five blocks, never four or six
    # (the caches, hence peak RSS, grow with every block).
    block = (
        S("QQ", 4, (1, 3, 1), d_max=3), S("QQ", 4, (1, 2, 2), d_max=4),
    ) * 2 + (
        S("QQ", 5, (1, 3, 1), d_max=3), S("QQ", 5, (1, 2, 1), d_max=4),
    ) * 4 + (
        S("QQ", 4, (2, 3, 1), d_max=3),
    ) * 2 + (
        S("QQ", 4, (0, 0), (1, 1, 2), d_max=3),
    ) * 5 + (
        S("QQ", 4, (1, 2, 1), d_max=7),
    )
    warmup = (S("QQ", 4, (1, 2, 1), d_max=3),)

    def run(self, problem, tr):
        ds = self.ds
        spec = self.parse(problem, tr)
        pres = spec.presentation
        verdict = self.verdict(pres, tr)
        window = range(spec.d_max + 1)
        with tr.span("grading.hilbert"):
            ideal = ds.minors(pres, pres.t)
            quotient = [ds.hilbert_function(ideal, d) for d in window]
            coker = [ds.hilbert_function(ds.Coker(pres.matrix), d) for d in window]
        with tr.span("determinantal.augment"):
            psi = ds.augment_general_row(pres, seed=spec.seed)
        with tr.span("determinantal.section"):
            seq = ds.section_sequence(psi, psi.t - 1, d_max=spec.d_max)
        with tr.span("determinantal.flag"):
            flag = ds.build_flag(pres, seed=spec.seed)
        canonical = None
        if pres.r == 1:
            with tr.span("complexes.canonical"):
                canonical = ds.canonical_module(pres, d_max=spec.d_max)
        with tr.span("complexes.annihilator"):
            ann = ds.verify_annihilator(pres, d_max=ANNIHILATOR_DEGREE)
        return {"verdict": verdict, "d_max": spec.d_max, "quotient": quotient, "coker": coker,
                "psi_twists": (psi.matrix.target.twists, psi.matrix.source.twists),
                "seq": seq, "flag": flag, "canonical": canonical, "ann": ann}

    def check(self, problem, o):
        out = self.check_generic_verdict(problem, o["verdict"])
        a, b, nv = problem.row_twists, problem.col_twists, problem.nvars
        r, window = problem.r, range(o["d_max"] + 1)
        if o["quotient"] != [refs.hf_quotient(a, b, nv, d) for d in window]:
            out.append(("grading", "HF(R/I) differs from the Eagon-Northcott sum"))
        if o["coker"] != [refs.hf_coker(a, b, nv, d) for d in window]:
            out.append(("grading", "HF(coker) differs from the Buchsbaum-Rim sum"))
        a_new = min(a)
        psi_a, psi_b = tuple(a) + (a_new,), tuple(b)
        if o["psi_twists"] != (psi_a, psi_b):
            out.append(("determinantal", f"augmented twists {o['psi_twists']}"))
        seq = o["seq"]
        want = tuple(
            (d, refs.hf_coker(psi_a, psi_b, nv, d), refs.hf_quotient(psi_a, psi_b, nv, d - a_new),
             refs.hf_coker(a, b, nv, d))
            for d in window
        )
        if seq.twist != a_new or seq.hf_rows != want or not seq.additivity_ok:
            out.append(("determinantal", "section sequence rows differ from the references"))
        flag = o["flag"]
        if flag.codims != tuple(range(r + 1, 0, -1)) or not (flag.all_good and flag.containments_ok):
            out.append(("determinantal", f"flag codims {flag.codims}"))
        can = o["canonical"]
        if r == 1 and (can is None or can.shift != refs.canonical_shift(a, b, nv)
                       or can.degrees != tuple(window)):
            out.append(("complexes", "canonical module shift or window differs"))
        ann = o["ann"]
        if not ann.passed or ann.max_degree != ANNIHILATOR_DEGREE:
            out.append(("complexes", "annihilator check failed"))
        return out


WORKLOADS = {w.name: w for w in (ClassifyStream, ResolutionCertify, RowSurgery)}
