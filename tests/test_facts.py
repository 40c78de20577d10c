"""The facts reader behind ``Database.from_source``.

A literal whose every statement is a fact of the common shape
(``pred(term, ..., term).`` over lowercase ASCII identifiers, ints and
quoted strings, separated by spaces, tabs and newlines) is read in one
regex pass; anything else goes through the parser.  The differential
below holds the two paths to the same relations, or to the same
exception with the same message, line and column.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.budget import BudgetExhausted, time_budget
from repro.datalog import database as database_module
from repro.datalog.database import Database

IDENTIFIERS = st.from_regex(r"[a-z][A-Za-z0-9_']{0,3}", fullmatch=True)
#: Term texts of the common shape.
GOOD_TERMS = st.one_of(
    IDENTIFIERS,
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["007", "-0", "''", '""', "a'b'", "x_1"]),
    st.text("ab ,.%#()\u00e9\t\"", max_size=4).map(lambda t: f"'{t}'"),
    st.text("ab ,.%#()\u00e9'", max_size=4).map(lambda t: f'"{t}"'),
)
#: Term texts the parser reads (or rejects) and the reader leaves to it.
OTHER_TERMS = st.sampled_from([
    "X", "_y", "Abc", "1a", "'open", '"open', "\u00e9t\u00e9", "a\u0663",
    "\u0663", "x y", "-", "a\u00a0", "", "'line\nbreak'", "1" * 700])
GOOD_SPACE = st.sampled_from(["", " ", "\t", "\n", "\n\n", " \t\n "])
OTHER_SPACE = st.sampled_from(["\r", "\r\n", "\u00a0", "\u2003", "\f"])
#: Whole statements of other shapes.
OTHER_STATEMENTS = st.sampled_from([
    "p.", "p().", "q(a) :- .", "p(a) :- e(a, b).", "% comment\n",
    "# comment\n", "e(a, b) % trailing\n.", "p(a)", "P(a).", "p(a)..",
    "p(X, Y) :- e(X, Y).", "e(a, b, c).", "e(a).", ".", ")", "p(a,).",
    "p(\u00e9).", "pr\u00e9d(a).", "p(a) p(b).", "e(a,\r b)."])

#: Predicate -> arity of the common-shape statements, so that only the
#: statements drawn from OTHER_STATEMENTS conflict.
ARITIES = {"e": 2, "p": 1, "t": 3, "q'": 1}


@st.composite
def facts(draw, terms=GOOD_TERMS, space=GOOD_SPACE):
    predicate = draw(st.sampled_from(sorted(ARITIES)))
    args = [draw(terms) for _ in range(ARITIES[predicate])]
    pad = [draw(space) for _ in range(4)]
    return (f"{predicate}{pad[0]}({pad[1]}"
            + f"{pad[2]},{pad[3]}".join(args) + f"{pad[1]}){pad[0]}.")


def _outcome(source: str):
    """``Database.from_source(source)`` as comparable data: the
    relations in insertion order with their arities, or the error."""
    try:
        db = Database.from_source(source)
    except Exception as exc:  # the error is the outcome
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return [(predicate, rows, db.arity(predicate))
            for predicate, rows in db.relations()]


def _parser_outcome(source: str):
    with mock.patch.object(database_module, "_common_facts",
                           lambda source: None):
        return _outcome(source)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(facts(), GOOD_SPACE), max_size=12))
def test_common_shape_takes_the_reader(statements):
    source = "".join(fact + space for fact, space in statements)
    assert database_module._common_facts(source) is not None
    assert _outcome(source) == _parser_outcome(source)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(facts(), facts(st.one_of(GOOD_TERMS, OTHER_TERMS)),
              facts(space=st.one_of(GOOD_SPACE, OTHER_SPACE)),
              OTHER_STATEMENTS),
    st.one_of(GOOD_SPACE, OTHER_SPACE)), max_size=8))
def test_reader_matches_the_parser(statements):
    source = "".join(statement + space for statement, space in statements)
    assert _outcome(source) == _parser_outcome(source)


#: Literals the reader leaves to the parser, by what sends them there.
OTHER_LITERALS = {
    "arity-conflict": "e(a, b). e(a).",
    "int-then-identifier": "e(a, b).\ne(1a, b).",
    "unterminated-quote": "e(a, b).\ne('open, b).",
    "variable": "e(a, b). e(X, b).",
    "zero-ary": "e(a, b). p.",
    "carriage-return": "e(a, b).\r\ne(b, c).",
    "non-ascii-letters": "e(a, \u00e9t\u00e9).",
    "non-ascii-digit": "e(a, 1\u0663).",
    "non-ascii-space": "e(a,\u00a0b).",
    "int-past-640-digits": "e(1, " + "9" * 700 + ").",
}


@pytest.mark.parametrize("source", list(OTHER_LITERALS.values()),
                         ids=list(OTHER_LITERALS))
def test_other_literals_keep_the_parser(source):
    assert database_module._common_facts(source) is None
    assert _outcome(source) == _parser_outcome(source)


def test_reader_values():
    db = Database.from_source(
        "e(a, 'a').\te(007, -0).\n\ne(\"x, y\", a'b').  t(1, '', \"'\").")
    assert db.relation("e") == Database.from_facts(
        [("e", ("a", "a")), ("e", (7, 0)), ("e", ("x, y", "a'b'"))]
    ).relation("e")
    assert db.contains("t", (1, "", "'"))


def _literal(facts_count: int) -> str:
    return "\n".join(f"e(n{i}, n{i + 1})." for i in range(facts_count))


def test_reader_checks_the_deadline_per_4096_facts(monkeypatch):
    calls = []
    monkeypatch.setattr(database_module, "check_deadline",
                        lambda: calls.append(None))
    db = Database.from_source(_literal(3 * 4096 + 1))
    assert len(db) == 3 * 4096 + 1
    assert len(calls) == 3


@pytest.mark.parametrize("header", ["", "% a comment: the parser reads it\n"],
                         ids=["reader", "parser"])
def test_deadline_stops_a_1mib_literal(header, monkeypatch):
    source = header + _literal(60_000)
    assert len(source) > 1 << 20
    hooks = []
    real = database_module.check_deadline
    monkeypatch.setattr(database_module, "check_deadline",
                        lambda: (hooks.append(None), real()))
    with pytest.raises(BudgetExhausted):
        with time_budget(0.001):
            Database.from_source(source)
    # The reader's own hook fired on the common shape; the parser's
    # on the fallback.
    assert bool(hooks) == (not header)
