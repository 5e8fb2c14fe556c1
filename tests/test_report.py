"""The JSON renderer against the ``json`` module's own indented output."""

import json

import pytest

from stablelimit import __version__, report, scenarios
from stablelimit.report import render_json

_EDGES = {"": [], "é\x00\x1f\"\\/ \ud800\U0001f600": {},
          "numbers": [0, -1, 10 ** 30, True, False, None, -0.0, 1e-310,
                      1.5e300, 0.1, float("nan"), float("inf"),
                      float("-inf")],
          "nested": [[[]], [{}], {"a": {"b": [1, {"c": "d"}]}}],
          "tuple": (1, ("x", ()))}


def test_render_matches_json_dumps_on_arbitrary_values():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # every code point, surrogates and control characters included
    text = st.text(st.characters(exclude_categories=()))
    leaves = (st.none() | st.booleans() | st.integers()
              | st.floats(allow_nan=True, allow_infinity=True) | text)
    values = st.recursive(
        leaves, lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                               | st.dictionaries(text, inner)),
        max_leaves=20)

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                         database=None)
    @hypothesis.given(values)
    @hypothesis.example(_EDGES)
    def check(value):
        assert report._render(value, "") == json.dumps(value, indent=2)

    check()


def test_render_json_of_a_full_run_matches_json_dumps(monkeypatch):
    reports = scenarios.run_many(None)
    text = render_json(reports, __version__)
    monkeypatch.setattr(report, "_render",
                        lambda doc, indent: json.dumps(doc, indent=2))
    assert text == render_json(reports, __version__)


@pytest.mark.parametrize("value", [
    {1: "a"}, {"a": {1, 2}}, [object()], b"bytes", 1j],
    ids=["int-key", "set", "object", "bytes", "complex"])
def test_render_refuses_values_json_cannot_encode(value):
    with pytest.raises(TypeError):
        report._render(value, "")


def test_record_keeps_a_value_without_deciding():
    rep = report.VerificationReport("r")
    rep.record("bare", ("x", 1), "derived")
    rep.record("stated", 3, "published", 4)
    # a mismatch is recorded, not judged
    assert rep.status == "pass" and not rep.notes
    assert rep.computed == {"bare": ["x", 1], "stated": 3}
    assert rep.expected == {"stated": 4}
    assert rep.provenance == {"bare": "derived", "stated": "published"}
    for record in (lambda: rep.record("k", 1, "guessed"),
                   lambda: rep.check("k", 1, 1, tag="guessed")):
        with pytest.raises(ValueError, match="provenance tag"):
            record()
    assert "k" not in rep.computed
