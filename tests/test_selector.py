"""Tests for the JMS message-selector parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.predicates import CmpAtom, Eq, EqAtom, In, Prefix
from repro.matching.selector import SelectorSyntaxError, parse_selector


def matches(selector, attrs):
    return parse_selector(selector).matches(attrs)


class TestComparisons:
    def test_equality(self):
        assert matches("symbol = 'IBM'", {"symbol": "IBM"})
        assert not matches("symbol = 'IBM'", {"symbol": "MSFT"})

    def test_inequality(self):
        assert matches("qty <> 5", {"qty": 6})
        assert not matches("qty <> 5", {"qty": 5})
        assert not matches("qty <> 5", {})  # absent attr never matches

    def test_ordering(self):
        assert matches("price > 10", {"price": 11})
        assert matches("price >= 10", {"price": 10})
        assert matches("price < 10", {"price": 9.5})
        assert matches("price <= 10", {"price": 10})
        assert not matches("price > 10", {"price": 10})

    def test_float_literals(self):
        assert matches("price >= 10.5", {"price": 10.5})
        assert matches("price < .75", {"price": 0.5})

    def test_string_escaping(self):
        assert matches("name = 'O''Brien'", {"name": "O'Brien"})

    def test_boolean_literals(self):
        assert matches("active = TRUE", {"active": True})
        assert matches("active = false", {"active": False})

    def test_bare_boolean_attribute(self):
        assert matches("active", {"active": True})
        assert not matches("active", {"active": False})


class TestCompound:
    def test_and_or_precedence(self):
        # AND binds tighter than OR.
        sel = "a = 1 OR b = 2 AND c = 3"
        assert matches(sel, {"a": 1})
        assert matches(sel, {"b": 2, "c": 3})
        assert not matches(sel, {"b": 2})

    def test_parentheses(self):
        sel = "(a = 1 OR b = 2) AND c = 3"
        assert matches(sel, {"a": 1, "c": 3})
        assert not matches(sel, {"a": 1})

    def test_not(self):
        assert matches("NOT a = 1", {"a": 2})
        assert not matches("NOT a = 1", {"a": 1})
        assert matches("NOT (a = 1 AND b = 2)", {"a": 1})

    def test_between(self):
        assert matches("x BETWEEN 2 AND 5", {"x": 3})
        assert matches("x BETWEEN 2 AND 5", {"x": 2})
        assert not matches("x BETWEEN 2 AND 5", {"x": 6})
        assert matches("x NOT BETWEEN 2 AND 5", {"x": 6})

    def test_in(self):
        assert matches("g IN (1, 3, 5)", {"g": 3})
        assert not matches("g IN (1, 3, 5)", {"g": 2})
        assert matches("g NOT IN (1, 3)", {"g": 2})
        assert matches("sym IN ('IBM', 'MSFT')", {"sym": "IBM"})

    def test_is_null(self):
        assert matches("x IS NULL", {"y": 1})
        assert not matches("x IS NULL", {"x": 1})
        assert matches("x IS NOT NULL", {"x": 1})

    def test_like_prefix(self):
        pred = parse_selector("sym LIKE 'IBM%'")
        assert isinstance(pred, Prefix)  # indexed-friendly compile
        assert pred.matches({"sym": "IBM.N"})
        assert not pred.matches({"sym": "MSFT"})

    def test_like_general(self):
        assert matches("sym LIKE '%X_Z'", {"sym": "abcXYZ"})
        assert not matches("sym LIKE '%X_Z'", {"sym": "abcXZ"})
        assert matches("sym NOT LIKE 'A%'", {"sym": "B"})

    def test_case_insensitive_keywords(self):
        assert matches("a = 1 and not b = 2", {"a": 1, "b": 3})


class TestCompileTargets:
    def test_equality_compiles_to_eq(self):
        assert parse_selector("g = 5") == Eq("g", 5)

    def test_in_compiles_to_in(self):
        assert parse_selector("g IN (1, 2)") == In("g", [1, 2])

    def test_indexability_preserved(self):
        pred = parse_selector("g = 1 AND price > 5")
        assert pred.decompose() == (
            (EqAtom("g", frozenset([1])), CmpAtom("price", ">", 5)), None,
        )


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "",
        "   ",
        "= 5",
        "a =",
        "a BETWEEN 1",
        "a IN 1",
        "a IN ()",
        "a LIKE 5",
        "a IS 5",
        "(a = 1",
        "a = 1 extra garbage =",
        "a NOT = 1",
        "a = 'unterminated",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(SelectorSyntaxError):
            parse_selector(bad)


@given(
    st.integers(0, 5), st.integers(0, 5),
    st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
)
@settings(max_examples=100)
def test_comparison_agrees_with_python(attr_value, bound, op):
    pred = parse_selector(f"x {op} {bound}")
    py = {"=": "==", "<>": "!="}.get(op, op)
    expected = eval(f"{attr_value} {py} {bound}")
    assert pred.matches({"x": attr_value}) == expected
