import pytest

from detschemes import PolyRing, groebner, presentation_from_strings
from detschemes.memo import Memo


@pytest.fixture
def fresh_gb_table(monkeypatch):
    """An empty Groebner table for one test: it is keyed by spans, so a basis
    another test stored could answer for an ideal of this one."""
    table = Memo(groebner._GB_CACHE.budget)
    monkeypatch.setattr(groebner, "_GB_CACHE", table)
    return table


@pytest.fixture(scope="session")
def ring():
    """k[x0..x3] over QQ with grevlex: the ambient ring of every fixture."""
    return PolyRing(("x0", "x1", "x2", "x3"))


@pytest.fixture(scope="session")
def ring_p2():
    return PolyRing(("x0", "x1", "x2"))


@pytest.fixture(scope="session")
def double_point(ring):
    """2x4 matrix whose maximal minors square the ideal of a point."""
    return presentation_from_strings(
        ring, [["x1", "x2", "x3", "0"], ["0", "x1", "x2", "x3"]]
    )


@pytest.fixture(scope="session")
def cubic_curve(ring):
    """Good non-reduced cubic curve."""
    return presentation_from_strings(ring, [["x0", "x1", "x2"], ["0", "x0", "x3"]])


@pytest.fixture(scope="session")
def coordinate_axes(ring):
    """The three coordinate axes; goodness needs a generalized row."""
    return presentation_from_strings(ring, [["-x3", "x2", "0"], ["0", "-x2", "x1"]])


@pytest.fixture(scope="session")
def ci_codim2(ring):
    return presentation_from_strings(ring, [["x0", "x1"]])


@pytest.fixture(scope="session")
def ci_codim3(ring):
    return presentation_from_strings(ring, [["x0", "x1", "x2"]])


@pytest.fixture(scope="session")
def generic_2x4():
    """The bundled seeded good zero-dimensional instance."""
    from detschemes.cli import fixture_path, parse_problem_text

    spec = parse_problem_text(fixture_path("generic_2x4").read_text(), "generic_2x4")
    return spec.presentation
