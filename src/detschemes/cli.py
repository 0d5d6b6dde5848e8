"""Command-line front end: problem files in, reports out.

Problem files are small self-describing key-value documents (schema 1):

    schema: 1
    ring.vars: x0, x1, x2, x3
    ring.field: QQ
    ring.order: grevlex
    matrix.entries:
      x1 | x2 | x3 | 0
      0  | x1 | x2 | x3
    seed: 42
    d_max: 10

Twists are inferred from entry degrees when omitted (first row pinned to 0).
Machine output (--json) is a single JSON document on stdout, deterministic
for a fixed input and seed apart from the timing field.  Exit codes: 0 on
success, 1 when a verification fails, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from importlib import resources

from .complexes import (
    betti_table,
    buchsbaum_eisenbud,
    buchsbaum_rim,
    canonical_module,
    cm_type,
    eagon_northcott,
    verify_annihilator,
    verify_complex,
)
from .determinantal import (
    DeterminantalPresentation,
    build_flag,
    classify,
    find_generalized_row,
    minors,
    section_sequence,
)
from .errors import InputError, VerificationError
from .field import FieldError, field_from_descriptor
from .grading import (
    Coker,
    GradingError,
    en_terms,
    hilbert_function,
    matrix_from_strings,
    resolution_hilbert_function,
)
from .groebner import minimal_generator_count
from .ring import MAX_DEGREE, PolyRing, RingError

SCHEMA_VERSION = 1

FIXTURE_NAMES = (
    "double_point",
    "cubic_curve",
    "coordinate_axes",
    "ci_codim2",
    "ci_codim3",
    "generic_2x4",
)


@dataclass
class ProblemSpec:
    path: str
    ring: PolyRing
    presentation: DeterminantalPresentation
    seed: int
    d_max: int


def _parse_int_list(value, key):
    try:
        return [int(x.strip()) for x in value.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"{key} must be a comma-separated integer list")


def parse_problem_text(text, path="<string>"):
    fields = {}
    matrix_rows = []
    in_matrix = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_matrix and (line.startswith(" ") or line.startswith("\t")):
            matrix_rows.append([cell.strip() for cell in line.split("|")])
            continue
        in_matrix = False
        if ":" not in line:
            raise InputError(f"{path}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "matrix.entries":
            in_matrix = True
            continue
        fields[key] = value

    if not matrix_rows:
        raise InputError(f"{path}: missing matrix.entries block")
    width = len(matrix_rows[0])
    if any(len(r) != width for r in matrix_rows):
        raise InputError(f"{path}: matrix rows have unequal lengths")

    schema = fields.get("schema", str(SCHEMA_VERSION))
    if schema.strip() != str(SCHEMA_VERSION):
        raise InputError(f"{path}: unsupported schema {schema!r}")
    if "ring.vars" not in fields:
        raise InputError(f"{path}: missing ring.vars")
    variables = [v.strip() for v in fields["ring.vars"].split(",") if v.strip()]
    try:
        field = field_from_descriptor(fields.get("ring.field", "QQ"))
        order = fields.get("ring.order", "grevlex")
        if order not in ("grevlex", "lex"):
            raise InputError(f"{path}: ring.order must be grevlex or lex")
        ring = PolyRing(tuple(variables), field, order)
    except (FieldError, RingError) as e:
        raise InputError(f"{path}: {e}")

    row_twists = None
    col_twists = None
    if "matrix.row_twists" in fields:
        row_twists = _parse_int_list(fields["matrix.row_twists"], f"{path}: matrix.row_twists")
    if "matrix.col_twists" in fields:
        col_twists = _parse_int_list(fields["matrix.col_twists"], f"{path}: matrix.col_twists")

    try:
        matrix = matrix_from_strings(ring, matrix_rows, row_twists, col_twists)
        pres = DeterminantalPresentation(matrix)
    except (RingError, GradingError, InputError) as e:
        raise InputError(f"{path}: {e}")

    seed = _bounded_int(fields.get("seed", "0"), 0, f"{path}: seed")
    d_max = _bounded_int(fields.get("d_max", "10"), 1, f"{path}: d_max", MAX_DEGREE)
    return ProblemSpec(path, ring, pres, seed, d_max)


def _bounded_int(value, low, name, high=None):
    """int(value) if it is at least low (0 or 1) and at most high (when
    given), else an InputError."""
    message = f"{name} must be {'an unsigned' if low == 0 else 'a positive'} integer"
    if high is not None:
        message += f" at most {high}"
    try:
        number = int(value)
    except ValueError:
        raise InputError(message) from None
    if number < low or (high is not None and number > high):
        raise InputError(message)
    return number


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read problem file {path}: {e}")
    return parse_problem_text(text, path)


def _ht(value):
    return "+INF" if value == math.inf else value


# -- command implementations --------------------------------------------------------


def _cmd_classify(spec, args):
    report = classify(spec.presentation)
    results = {
        "t": report.t,
        "r": report.r,
        "expected_codim": report.expected_codim,
        "actual_height": _ht(report.actual_height),
        "submaximal_height": _ht(report.submaximal_height),
        "is_standard": report.is_standard,
        "is_good": report.is_good,
        "empty_scheme": report.empty_scheme,
    }
    if report.is_good:
        witness = find_generalized_row(spec.presentation, seed=spec.seed)
        if witness is None:
            results["witness"] = None
        else:
            results["witness"] = {
                "row_combination": list(witness.row_combination),
                "seed": witness.seed,
                "verified": witness.verified,
                "literal_row": witness.literal_row,
            }
    return results, 0


def _cmd_minors(spec, args):
    ideal = minors(spec.presentation, args.size)
    return {
        "size": args.size,
        "count": len(ideal.generators),
        "generators": [str(g) for g in ideal.generators],
        "minimal_generators": {
            str(d): c for d, c in sorted(minimal_generator_count(ideal).items())
        },
    }, 0


def _build_complex(spec, kind):
    if kind == "en":
        return eagon_northcott(spec.presentation)
    if kind == "br":
        return buchsbaum_rim(spec.presentation)
    raise InputError(f"unknown complex kind {kind!r}")


def _cmd_complex(spec, args):
    cpx = _build_complex(spec, args.kind)
    dd = verify_complex(cpx)
    results = {
        "kind": args.kind,
        "ranks": list(cpx.ranks),
        "module_twists": [list(m.twists) for m in cpx.modules],
        "dd_zero": dd,
    }
    if not dd:
        results["acyclic"] = None
        return results, 1
    report = buchsbaum_eisenbud(cpx, seed=spec.seed)
    results["acyclic"] = {
        "passed": report.passed,
        "entries": [
            {
                "position": e.position,
                "expected_rank": e.expected_rank,
                "computed_rank": e.computed_rank,
                "minor_height": _ht(e.minor_height),
                "ok": e.ok,
            }
            for e in report.entries
        ],
    }
    return results, 0 if report.passed else 1


def _cmd_betti(spec, args):
    cpx = eagon_northcott(spec.presentation)
    table = betti_table(cpx, seed=spec.seed)
    return {
        "cells": {f"{i},{d}": c for i, d, c in table.cells},
        "total_ranks": list(table.total_ranks()),
        "alternating_sum": table.alternating_sum(),
    }, 0


def _cmd_cm_type(spec, args):
    value = cm_type(spec.presentation)
    return {
        "cm_type": value,
        "t": spec.presentation.t,
        "r": spec.presentation.r,
    }, 0


def _cmd_annihilator(spec, args):
    report = verify_annihilator(spec.presentation, d_max=spec.d_max)
    results = {
        "passed": report.passed,
        "max_degree": report.max_degree,
        "failed_degree": report.failed_degree,
        "failed_direction": report.failed_direction,
    }
    return results, 0 if report.passed else 1


def _cmd_flag(spec, args):
    flag = build_flag(spec.presentation, seed=spec.seed)
    return {
        "codims": list(flag.codims),
        "all_good": flag.all_good,
        "containments_ok": flag.containments_ok,
        "stages": [
            {
                "t": st.presentation.t,
                "r": st.presentation.r,
                "codim": st.report.expected_codim,
                "good": st.report.is_good,
                "containment_ok": st.containment_ok,
            }
            for st in flag.stages
        ],
        "seed": spec.seed,
    }, 0 if flag.all_good and flag.containments_ok else 1


def _cmd_section(spec, args):
    seq = section_sequence(spec.presentation, args.row, d_max=spec.d_max)
    return {
        "deleted_row": args.row,
        "twist": seq.twist,
        "additivity_ok": seq.additivity_ok,
        "hilbert_rows": [list(row) for row in seq.hf_rows],
    }, 0 if seq.additivity_ok else 1


def _cmd_canonical(spec, args):
    result = canonical_module(spec.presentation, d_max=spec.d_max)
    return {
        "shift": result.shift,
        "cyclic": result.cyclic,
        "degrees_checked": list(result.degrees),
    }, 0


def _cmd_hilbert(spec, args):
    """HF(R/I_t, d) and HF(coker Φ, d) for d = 0..d_max.  On a standard
    presentation EN and BR are resolutions, so both are read off their terms
    (the cokernel's through `piece_rank`); otherwise R/I_t counts standard
    monomials and the cokernel ranks pieces."""
    pres = spec.presentation
    window = range(spec.d_max + 1)
    if classify(pres).is_standard:
        terms = en_terms(pres.matrix)[1]
        quotient = [resolution_hilbert_function(terms, d) for d in window]
    else:
        ideal = minors(pres, pres.t)
        quotient = [hilbert_function(ideal, d) for d in window]
    coker = [hilbert_function(Coker(pres.matrix), d) for d in window]
    return {
        "max_degree": spec.d_max,
        "quotient": quotient,
        "coker": coker,
    }, 0


def fixture_path(name):
    return resources.files("detschemes").joinpath(f"fixtures/{name}.problem")


def _golden_path(name):
    return resources.files("detschemes").joinpath(f"fixtures/golden/{name}.json")


def fixture_report(name):
    """The golden-file battery for one bundled fixture: its classify output."""
    spec = parse_problem_text(fixture_path(name).read_text(), f"fixtures/{name}")
    results, code = _cmd_classify(spec, None)
    report = classify(spec.presentation)
    if report.is_standard:
        results["cm_type"] = cm_type(spec.presentation)
        ideal = minors(spec.presentation, spec.presentation.t)
        results["minimal_generators"] = {
            str(d): c for d, c in sorted(minimal_generator_count(ideal).items())
        }
    return results, code


def _cmd_examples(spec, args):
    outcomes = {}
    all_ok = True
    for name in FIXTURE_NAMES:
        results, _ = fixture_report(name)
        try:
            golden = json.loads(_golden_path(name).read_text())
        except FileNotFoundError:
            outcomes[name] = "missing-golden"
            all_ok = False
            continue
        if results == golden:
            outcomes[name] = "ok"
        else:
            outcomes[name] = "differs"
            all_ok = False
    return {"fixtures": outcomes, "all_ok": all_ok}, 0 if all_ok else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "minors": _cmd_minors,
    "complex": _cmd_complex,
    "betti": _cmd_betti,
    "cm-type": _cmd_cm_type,
    "annihilator": _cmd_annihilator,
    "flag": _cmd_flag,
    "section": _cmd_section,
    "canonical": _cmd_canonical,
    "hilbert": _cmd_hilbert,
    "examples": _cmd_examples,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="detschemes",
        description="classify and certify determinantal schemes from homogeneous matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_spec=True):
        p = sub.add_parser(name)
        if needs_spec:
            p.add_argument("spec", help="problem file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=None, help="override the file seed")
        return p

    add("classify")
    p = add("minors")
    p.add_argument("--size", type=int, required=True)
    p = add("complex")
    p.add_argument("--kind", choices=("en", "br"), required=True)
    add("betti")
    add("cm-type")
    p = add("annihilator")
    p.add_argument("--max-degree", type=int, default=None)
    add("flag")
    p = add("section")
    p.add_argument("--row", type=int, required=True)
    add("canonical")
    p = add("hilbert")
    p.add_argument("--max-degree", type=int, default=None)
    add("examples", needs_spec=False)
    return parser


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    print(f"command: {' '.join(report['command'])}")
    if report.get("spec"):
        print(f"spec: {report['spec']}")
    print(f"seed: {report['seed']}")
    _emit_value(report["results"], indent=0)
    print(f"elapsed: {report['timing_seconds']:.3f}s")


def _emit_value(value, indent):
    pad = "  " * indent
    if isinstance(value, dict):
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{pad}{k}:")
                _emit_value(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                _emit_value(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{value}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    started = time.perf_counter()
    command = args.command
    try:
        seed = 0 if args.seed is None else _bounded_int(args.seed, 0, "--seed")
        if command == "examples":
            spec = None
        else:
            spec = load_problem(args.spec)
            if args.seed is not None:
                spec.seed = seed
            if getattr(args, "max_degree", None) is not None:
                spec.d_max = _bounded_int(args.max_degree, 1, "--max-degree", MAX_DEGREE)
            seed = spec.seed
        results, code = _COMMANDS[command](spec, args)
    except (InputError, RingError, GradingError, FieldError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1

    report = {
        "schema": SCHEMA_VERSION,
        "command": [command] + ([args.spec] if spec is not None else []),
        "spec": args.spec if spec is not None else None,
        "seed": seed,
        "results": results,
        "timing_seconds": time.perf_counter() - started,
    }
    _emit(report, args.json)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
