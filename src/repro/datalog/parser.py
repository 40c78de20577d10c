"""A hand-written parser for textual Datalog.

Syntax
------

* A program is a sequence of rules, each terminated by ``.``
* ``head :- a1, ..., an.`` is a rule; ``head.`` or ``head :- .`` is a
  rule with an empty body.
* Identifiers starting with an uppercase letter or ``_`` are variables;
  identifiers starting with a lowercase letter are predicate symbols or
  constants depending on position.  Integers and quoted strings
  (``'abc'`` or ``"abc"``) are constants.
* ``%`` and ``#`` start comments that run to the end of the line.

Example::

    p(X, Y) :- e(X, Z), p(Z, Y).
    p(X, Y) :- e0(X, Y).
"""

from __future__ import annotations

from typing import List, NamedTuple

from ..budget import check_deadline
from .atoms import Atom
from .errors import ParseError
from .program import Program
from .rules import Rule
from .terms import Constant, Variable

_SYMBOLS = (":-", "(", ")", ",", ".")


class _Token(NamedTuple):
    kind: str  # "ident", "int", "string", "symbol", "eof"
    text: str
    line: int
    column: int


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, column = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            column += 1
            continue
        if ch in "%#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith(":-", i):
            tokens.append(_Token("symbol", ":-", line, column))
            i += 2
            column += 2
            continue
        if ch in "(),.":
            if ch == ".":
                # Once per statement: a 1 MiB facts literal takes
                # seconds to read.
                check_deadline()
            tokens.append(_Token("symbol", ch, line, column))
            i += 1
            column += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    raise ParseError("unterminated string constant", line, column)
                j += 1
            if j >= n:
                raise ParseError("unterminated string constant", line, column)
            tokens.append(_Token("string", source[i + 1 : j], line, column))
            column += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_Token("int", source[i:j], line, column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_'"):
                j += 1
            tokens.append(_Token("ident", source[i:j], line, column))
            column += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("eof", "", line, column))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self._tokens = _tokenize(source)
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._peek()
        if token.kind != "symbol" or token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.line, token.column)
        return self._advance()

    def _parse_term(self):
        token = self._advance()
        if token.kind == "int":
            return Constant(int(token.text))
        if token.kind == "string":
            return Constant(token.text)
        if token.kind == "ident":
            if token.text[0].isupper() or token.text[0] == "_":
                return Variable(token.text)
            return Constant(token.text)
        raise ParseError(f"expected a term, found {token.text!r}", token.line, token.column)

    def parse_atom(self) -> Atom:
        token = self._advance()
        if token.kind != "ident" or token.text[0].isupper() or token.text[0] == "_":
            raise ParseError(
                f"expected a predicate symbol, found {token.text!r}", token.line, token.column
            )
        predicate = token.text
        args: List = []
        if self._peek().kind == "symbol" and self._peek().text == "(":
            self._advance()
            if not (self._peek().kind == "symbol" and self._peek().text == ")"):
                args.append(self._parse_term())
                while self._peek().kind == "symbol" and self._peek().text == ",":
                    self._advance()
                    args.append(self._parse_term())
            self._expect(")")
        return Atom(predicate, tuple(args))

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        body: List[Atom] = []
        token = self._peek()
        if token.kind == "symbol" and token.text == ":-":
            self._advance()
            if not (self._peek().kind == "symbol" and self._peek().text == "."):
                body.append(self.parse_atom())
                while self._peek().kind == "symbol" and self._peek().text == ",":
                    self._advance()
                    body.append(self.parse_atom())
        self._expect(".")
        return Rule(head, tuple(body))

    def parse_program(self) -> Program:
        rules: List[Rule] = []
        while self._peek().kind != "eof":
            check_deadline()
            rules.append(self.parse_rule())
        return Program(rules)

    def at_eof(self) -> bool:
        return self._peek().kind == "eof"


def parse_program(source: str) -> Program:
    """Parse a full Datalog program from *source*."""
    return _Parser(source).parse_program()


def parse_rule(source: str) -> Rule:
    """Parse a single rule (must consume the whole input)."""
    parser = _Parser(source)
    rule = parser.parse_rule()
    if not parser.at_eof():
        token = parser._peek()
        raise ParseError("trailing input after rule", token.line, token.column)
    return rule


def parse_atom(source: str) -> Atom:
    """Parse a single atom (must consume the whole input)."""
    parser = _Parser(source)
    atom = parser.parse_atom()
    if not parser.at_eof():
        token = parser._peek()
        raise ParseError("trailing input after atom", token.line, token.column)
    return atom
