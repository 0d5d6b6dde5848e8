import json
import subprocess
import sys
from pathlib import Path

import pytest

from detschemes import classify
from detschemes.cli import (
    FIXTURE_NAMES,
    fixture_path,
    parse_problem_text,
    run,
)
from detschemes.errors import InputError

GOOD_TEXT = """
schema: 1
ring.vars: x0, x1, x2, x3
ring.field: QQ
ring.order: grevlex
matrix.entries:
  x1 | x2 | x3 | 0
  0  | x1 | x2 | x3
seed: 42
d_max: 10
"""


def _write(tmp_path, text, name="case.problem"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_problem_text_roundtrip():
    spec = parse_problem_text(GOOD_TEXT)
    assert spec.ring.variables == ("x0", "x1", "x2", "x3")
    assert spec.presentation.t == 2 and spec.presentation.r == 2
    assert spec.seed == 42 and spec.d_max == 10
    assert spec.presentation.matrix.target.twists == (0, 0)
    assert spec.presentation.matrix.source.twists == (1, 1, 1, 1)


def test_parse_problem_rejects_schema():
    with pytest.raises(InputError):
        parse_problem_text(GOOD_TEXT.replace("schema: 1", "schema: 99"))


def test_parse_problem_rejects_ragged_matrix():
    bad = GOOD_TEXT.replace("  0  | x1 | x2 | x3", "  0  | x1 | x2")
    with pytest.raises(InputError):
        parse_problem_text(bad)


def test_parse_problem_rejects_inhomogeneous():
    bad = GOOD_TEXT.replace("x1 | x2 | x3 | 0", "x1 + x2^2 | x2 | x3 | 0")
    with pytest.raises(InputError):
        parse_problem_text(bad)


def test_parse_problem_rejects_bad_field():
    bad = GOOD_TEXT.replace("ring.field: QQ", "ring.field: Fp:6")
    with pytest.raises(InputError):
        parse_problem_text(bad)


def test_cli_classify_json(tmp_path, capsys):
    path = _write(tmp_path, GOOD_TEXT)
    code = run(["classify", path, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["results"]["is_standard"] is True
    assert report["results"]["is_good"] is False
    assert report["results"]["actual_height"] == 3


def test_cli_determinism(tmp_path, capsys):
    path = _write(tmp_path, GOOD_TEXT)
    run(["classify", path, "--json"])
    first = json.loads(capsys.readouterr().out)
    run(["classify", path, "--json"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert first == second


def test_cli_report_roundtrip(tmp_path, capsys):
    path = _write(tmp_path, GOOD_TEXT)
    run(["minors", path, "--size", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert json.loads(json.dumps(report)) == report
    assert report["results"]["count"] == 6


def test_cli_exit_code_input_error(tmp_path, capsys):
    path = _write(tmp_path, "not a problem file")
    assert run(["classify", path]) == 2
    missing = str(tmp_path / "nope.problem")
    assert run(["classify", missing]) == 2


@pytest.mark.parametrize(
    "entries, twists, message",
    [
        ("  x0 | x1 | x2", "matrix.col_twists: 1,1", "3 columns need 3 column twists, not 2"),
        ("  x0 | x1 | x2\n  x1 | x2 | x3", "matrix.row_twists: 0", "2 rows need 2 row twists, not 1"),
        ("  x0 | x1 | x2", "matrix.col_twists: 1,1,1,1", "3 columns need 3 column twists, not 4"),
    ],
)
def test_cli_twist_lists_of_the_wrong_length_exit_2(tmp_path, capsys, entries, twists, message):
    text = GOOD_TEXT.replace("  x1 | x2 | x3 | 0\n  0  | x1 | x2 | x3", entries)
    path = _write(tmp_path, text.replace("seed: 42", f"{twists}\nseed: 42"))
    for argv in (["classify"], ["minors", "--size", "1"], ["hilbert"]):
        assert run([argv[0], path, *argv[1:], "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("key", ["matrix.row_twists", "matrix.col_twists"])
@pytest.mark.parametrize("value", ["0, one", "1.5", "0;0"])
def test_cli_twist_lists_that_are_not_integers_exit_2_naming_the_file(tmp_path, capsys, key, value):
    path = _write(tmp_path, GOOD_TEXT.replace("seed: 42", f"{key}: {value}\nseed: 42"))
    assert run(["classify", path, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {path}: {key} must be a comma-separated integer list\n"


def test_cli_cm_type_of_small_prime_copies_equals_the_rational_one(tmp_path, capsys):
    """cm-type builds no differential, so it answers every characteristic in
    which the copy is standard, with the value of the rational fixture."""
    answered = set()
    for name in FIXTURE_NAMES:
        text = fixture_path(name).read_text()
        assert run(["cm-type", str(fixture_path(name)), "--json"]) == 0
        want = json.loads(capsys.readouterr().out)["results"]
        for p in (2, 3, 5):
            copy = text.replace("ring.field: QQ", f"ring.field: Fp:{p}")
            standard = classify(parse_problem_text(copy).presentation).is_standard
            code = run(["cm-type", _write(tmp_path, copy), "--json"])
            out = capsys.readouterr().out
            if standard:
                assert code == 0 and json.loads(out)["results"] == want, (name, p)
                answered.add((name, p))
            else:
                assert code == 2
    assert ("generic_2x4", 3) in answered and ("double_point", 2) in answered
    assert len(answered) == 3 * len(FIXTURE_NAMES) - 1  # generic_2x4 mod 2 is not standard


def test_cli_exit_code_verification_failure(tmp_path, capsys):
    deficient = GOOD_TEXT.replace(
        "  x1 | x2 | x3 | 0", "  x0 | x1 | 0 | 0"
    ).replace("  0  | x1 | x2 | x3", "  0 | x0 | x1 | 0")
    path = _write(tmp_path, deficient)
    code = run(["complex", path, "--kind", "en", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["results"]["dd_zero"] is True
    assert out["results"]["acyclic"]["passed"] is False


def test_cli_seed_override(tmp_path, capsys):
    path = _write(tmp_path, GOOD_TEXT)
    code = run(["classify", path, "--seed", "7", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["seed"] == 7


def test_cli_section_and_hilbert(tmp_path, capsys):
    curve = GOOD_TEXT.replace(
        "  x1 | x2 | x3 | 0", "  x0 | x1 | x2"
    ).replace("  0  | x1 | x2 | x3", "  0  | x0 | x3")
    path = _write(tmp_path, curve)
    assert run(["section", path, "--row", "1", "--json"]) == 0
    section = json.loads(capsys.readouterr().out)
    assert section["results"]["additivity_ok"] is True
    assert run(["hilbert", path, "--max-degree", "5", "--json"]) == 0
    hf = json.loads(capsys.readouterr().out)
    assert hf["results"]["quotient"][0] == 1


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_hilbert_of_a_lex_copy_equals_grevlex(tmp_path, capsys, name):
    text = fixture_path(name).read_text()
    assert "ring.order: grevlex" in text
    results = []
    for order in ("grevlex", "lex"):
        lexed = text.replace("ring.order: grevlex", f"ring.order: {order}")
        assert run(["hilbert", _write(tmp_path, lexed, f"{order}.problem"), "--json"]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"])
    assert results[0] == results[1]


def test_cli_one_row_with_equal_entries_is_not_standard_and_its_coker_is_r_mod_i1(tmp_path, capsys):
    """Two equal entries of a linear 1x3 row: ht I_1 = 2, and R/I_1 is the
    coordinate ring of a line, in grevlex and lex."""
    text = (Path(__file__).parent / "one_row_repeated.problem").read_text()
    for order in ("grevlex", "lex"):
        path = _write(tmp_path, text.replace("ring.order: grevlex", f"ring.order: {order}"))
        assert run(["classify", path, "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)["results"]
        assert (verdict["actual_height"], verdict["is_standard"]) == (2, False)
        assert run(["hilbert", path, "--json"]) == 0
        hf = json.loads(capsys.readouterr().out)["results"]
        assert hf["quotient"] == hf["coker"] == list(range(1, hf["max_degree"] + 2))


@pytest.mark.parametrize("field", ["QQ", "Fp:32003"])
def test_cli_hilbert_of_a_standard_presentation_reads_the_resolution_terms(
    tmp_path, capsys, monkeypatch, field
):
    """Once its verdict is stored, `hilbert` on a standard presentation
    computes no minor, no basis and no piece: its columns are the EN and BR
    sums, equal to standard-monomial counts and explicit piece ranks."""
    from detschemes import determinantal, grading, groebner, minors, piece_rank
    from detschemes.groebner import quotient_hilbert_function

    def refuse(*_):
        raise AssertionError("hilbert of a standard presentation left the term route")

    for name in FIXTURE_NAMES:
        text = fixture_path(name).read_text().replace("ring.field: QQ", f"ring.field: {field}")
        spec = parse_problem_text(text, name)
        P, window = spec.presentation, range(spec.d_max + 1)
        ideal = minors(P, P.t)
        want = {
            "max_degree": spec.d_max,
            "quotient": [quotient_hilbert_function(ideal, d) for d in window],
            "coker": [P.matrix.target.dim(d) - piece_rank(P.matrix, d, "groebner") for d in window],
        }
        assert classify(P).is_standard
        path = _write(tmp_path, text)
        with monkeypatch.context() as patch:
            for module, fn in ((determinantal, "_laplace_minors"), (groebner, "_buchberger"),
                               (grading, "matrix_piece")):
                patch.setattr(module, fn, refuse)
            assert run(["hilbert", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["results"] == want


def test_cli_hilbert_of_an_inhomogeneous_entry_exits_2(tmp_path, capsys):
    bad = GOOD_TEXT.replace("x1 | x2 | x3 | 0", "x1 + x2^2 | x2 | x3 | 0")
    assert run(["hilbert", _write(tmp_path, bad), "--json"]) == 2
    assert "homogeneous" in capsys.readouterr().err


def test_cli_annihilator_generic_2x4(capsys):
    path = str(fixture_path("generic_2x4"))
    assert run(["annihilator", path, "--max-degree", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["passed"] is True
    assert report["results"]["max_degree"] == 5


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("annihilator", "--max-degree", "-2"),
        ("annihilator", "--max-degree", "0"),
        ("hilbert", "--max-degree", "-3"),
        ("flag", "--seed", "-5"),
        ("classify", "--seed", "-1"),
    ],
)
def test_cli_overrides_obey_the_problem_file_rules(command, flag, value, capsys):
    path = str(fixture_path("cubic_curve"))
    assert run([command, path, flag, value, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be" in captured.err
    # the smallest values the problem file allows pass
    smallest = "1" if flag == "--max-degree" else "0"
    assert run([command, path, flag, smallest, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]


def test_cli_examples_against_goldens(capsys):
    code = run(["examples", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["all_ok"] is True
    assert set(report["results"]["fixtures"]) == set(FIXTURE_NAMES)


def test_cli_human_output(tmp_path, capsys):
    path = _write(tmp_path, GOOD_TEXT)
    assert run(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "is_standard: True" in out
    assert "elapsed:" in out


def test_fixture_files_load():
    for name in FIXTURE_NAMES:
        spec = parse_problem_text(fixture_path(name).read_text(), name)
        assert spec.presentation.t >= 1


def test_cli_prime_field_problem(tmp_path, capsys):
    text = GOOD_TEXT.replace("ring.field: QQ", "ring.field: Fp:32003")
    path = _write(tmp_path, text)
    assert run(["classify", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["is_standard"] is True
    assert report["results"]["is_good"] is False


def test_cli_large_prime_moduli(tmp_path, capsys):
    # a 61-bit prime modulus is accepted and computed with
    text = GOOD_TEXT.replace("ring.field: QQ", f"ring.field: Fp:{2**61 - 1}")
    assert run(["classify", _write(tmp_path, text), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["is_standard"] is True
    # past the range where the Miller-Rabin bases are proven: refused
    text = GOOD_TEXT.replace("ring.field: QQ", f"ring.field: Fp:{2**89 - 1}")
    proc = subprocess.run(
        [sys.executable, "-m", "detschemes.cli", "classify", _write(tmp_path, text, "big.problem")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "too large" in proc.stderr and "Traceback" not in proc.stderr


def test_console_script_entry_point(tmp_path):
    path = _write(tmp_path, GOOD_TEXT)
    result = subprocess.run(
        [sys.executable, "-m", "detschemes.cli", "classify", path, "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["results"]["expected_codim"] == 3


def test_cli_human_output_all_commands(tmp_path, capsys):
    curve = GOOD_TEXT.replace(
        "  x1 | x2 | x3 | 0", "  x0 | x1 | x2"
    ).replace("  0  | x1 | x2 | x3", "  0  | x0 | x3")
    path = _write(tmp_path, curve)
    commands = [
        ["classify", path],
        ["minors", path, "--size", "2"],
        ["complex", path, "--kind", "br"],
        ["betti", path],
        ["cm-type", path],
        ["flag", path],
        ["section", path, "--row", "1"],
        ["canonical", path],
        ["hilbert", path, "--max-degree", "4"],
    ]
    for argv in commands:
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        assert "elapsed:" in out


def test_demo_scripts_run():
    import pathlib

    demos = pathlib.Path(__file__).resolve().parent.parent / "demos"
    for script in sorted(demos.glob("*.py")):
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, (script.name, result.stderr[-500:])


def test_cli_degree_past_the_packed_field_exits_2(tmp_path, capsys):
    text = GOOD_TEXT.replace("  x1 | x2 | x3 | 0", "  x0^40000 | x2 | x3 | 0")
    path = _write(tmp_path, text)
    assert run(["classify", path, "--json"]) == 2
    assert "degree" in capsys.readouterr().err
    # entries in range whose minors are not
    text = GOOD_TEXT.replace(
        "  x1 | x2 | x3 | 0\n  0  | x1 | x2 | x3",
        "  x0^20000 | x1^20000 | x2^20000\n  x1^20000 | x2^20000 | x3^20000",
    )
    assert "x0^20000" in text
    path = _write(tmp_path, text, "minors.problem")
    assert run(["classify", path, "--json"]) == 2
    assert "degree" in capsys.readouterr().err


_FUZZ_ALPHABET = "x0123456789^*/+-|:#,. \t\nabQFp_"


def _mutate(text, rng):
    """One seeded edit: delete, insert or replace a span, or shuffle lines."""
    kind = rng.randrange(5)
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randint(1, 6))
    if kind == 0:
        return text[:i] + text[j:]
    if kind == 1:
        junk = "".join(rng.choice(_FUZZ_ALPHABET) for _ in range(rng.randint(1, 4)))
        return text[:i] + junk + text[i:]
    if kind == 2:
        return text[:i] + rng.choice(("99999999999999999999", "40000", "-1", "0", "")) + text[j:]
    lines = text.splitlines()
    if kind == 3 and len(lines) > 1:
        a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[a], lines[b] = lines[b], lines[a]
    else:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    return "\n".join(lines)


def test_parse_problem_text_fuzz_raises_only_input_error():
    import random

    rng = random.Random(20261017)
    texts = [GOOD_TEXT] + [fixture_path(name).read_text() for name in FIXTURE_NAMES]
    for _ in range(600):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        try:
            parse_problem_text(text, "fuzz")
        except InputError:
            pass


def test_a_200_term_entry_parses_and_malformed_ones_exit_2(tmp_path, ring, capsys):
    import random

    rng = random.Random(5)
    monos = ring.monomials_of_degree(9)
    terms = []
    for _ in range(200):
        mono = monos[rng.randrange(len(monos))]
        body = "*".join(f"x{i}^{e}" for i, e in enumerate(ring.exponents(mono)) if e)
        terms.append(f"{rng.randint(1, 9)}/{rng.randint(1, 5)}*{body}")
    entry = " + ".join(terms)
    want = sum((ring.parse(t) for t in terms), ring.zero())
    text = GOOD_TEXT.replace("  x1 | x2 | x3 | 0\n  0  | x1 | x2 | x3",
                             f"  {entry} | x0^9\n  x1^9 | x2^9")
    spec = parse_problem_text(text)
    assert spec.presentation.matrix.entry(0, 0) == want
    for bad in (entry + " +", entry + " x0", entry.replace("x0^", "x0^^", 1)):
        path = _write(tmp_path, text.replace(entry, bad), "bad.problem")
        assert run(["classify", path, "--json"]) == 2
        capsys.readouterr()


CURVE_TEXT = GOOD_TEXT.replace("  x1 | x2 | x3 | 0", "  x0 | x1 | x2").replace(
    "  0  | x1 | x2 | x3", "  0  | x0 | x3"
)


def _refuse(*args, **kwargs):
    raise AssertionError("a degree bound past MAX_DEGREE reached the computation")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["section", "--row", "1"], None),
        (["canonical"], None),
        (["hilbert"], None),
        (["annihilator"], None),
        (["hilbert", "--max-degree", "32768"], "--max-degree"),
        (["annihilator", "--max-degree", "99999999"], "--max-degree"),
    ],
)
def test_degree_bounds_past_max_degree_exit_2_before_any_work(
    argv, flag, tmp_path, capsys, monkeypatch
):
    from detschemes import cli
    from detschemes.ring import MAX_DEGREE

    for name in ("section_sequence", "canonical_module", "hilbert_function", "verify_annihilator"):
        monkeypatch.setattr(cli, name, _refuse)
    text = CURVE_TEXT if flag else CURVE_TEXT.replace("d_max: 10", "d_max: 99999999")
    path = _write(tmp_path, text)
    assert run([argv[0], path, *argv[1:], "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag or 'd_max'} must be a positive integer at most {MAX_DEGREE}" in captured.err


def test_d_max_at_max_degree_parses():
    from detschemes.ring import MAX_DEGREE

    spec = parse_problem_text(CURVE_TEXT.replace("d_max: 10", f"d_max: {MAX_DEGREE}"))
    assert spec.d_max == MAX_DEGREE == 32767
    with pytest.raises(InputError):
        parse_problem_text(CURVE_TEXT.replace("d_max: 10", f"d_max: {MAX_DEGREE + 1}"))
