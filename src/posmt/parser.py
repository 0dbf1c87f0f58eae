"""Tokenizer and recursive-descent parser for the formula grammar.

Grammar sketch:
    sentences := ";"* [sentence (";"+ sentence)* ";"*]   (ends at "}" or eof)
    sentence  := "hinductive:" impl (";" impl)*
               | "huniversal:" "!" posex
               | "positive:" posex
               | "general:" general
    impl      := ["forall" names "."] posex "->" posex
    posex     := ["exists" names "."] or_f
    or_f      := and_f ("|" and_f)*
    and_f     := atom ("&" atom)*
    atom      := "true" | "false" | "(" or_f ")" | term ["=" term]
    term      := NAME ["(" term ("," term)* ")"]

Names are [a-z][a-zA-Z0-9_]*; user variables may not begin with "_".
"#" starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, TypeVar

from .errors import ParseError
from .formulas import (
    And, App, Const, EqAtom, Exists, Falsum, Forall, GAnd, GOr,
    HInductiveSentence, HUniversalSentence, Implication, Implies, Not, Or,
    PosEx, RelAtom, Truth, Var, Formula, Term,
)
from .structures import Signature

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)|(?P<comment>#[^\n]*)|(?P<nl>\n)"
    r"|(?P<arrow>->)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<number>\d+)"
    r"|(?P<punct>[().,;:=&|!\[\]{}/<>-])"
)

KEYWORDS = {"forall", "exists", "true", "false"}
# sentence class prefix -> the Parser method that reads its formula
SENTENCE_CLASSES = {
    "hinductive": "parse_hinductive",
    "huniversal": "parse_huniversal",
    "positive": "parse_posex",
    "general": "parse_general",
}

T = TypeVar("T")


@dataclass
class Token:
    kind: str  # "name" | "punct" | "arrow" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        else:
            tokens.append(Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    """One token stream over a whole text; the workspace reader parses every
    block from it, and `signature` is set to the theory's for its block."""

    def __init__(self, text: str, signature: Optional[Signature] = None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.signature = signature
        self.bound: List[str] = []

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise self.error(f"expected {text!r}, found {t.text!r}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"

    def at_sentence(self) -> bool:
        """At `<class>:`, the start of a class-prefixed sentence."""
        return self.peek().text in SENTENCE_CLASSES and self.tokens[self.pos + 1].text == ":"

    def expect_name(self) -> str:
        t = self.peek()
        if t.kind != "name":
            raise self.error(f"expected a name, found {t.text!r}")
        return self.next().text

    def expect_number(self) -> int:
        t = self.peek()
        if t.kind != "number":
            raise self.error(f"expected a number, found {t.text!r}")
        return int(self.next().text)

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error(f"trailing input {self.peek().text!r}")

    def sep_by(self, item: Callable[[], T], sep: str) -> List[T]:
        """item (sep item)*"""
        out = [item()]
        while self.at(sep):
            self.next()
            out.append(item())
        return out

    # -- grammar ----------------------------------------------------------

    def parse_names(self) -> Tuple[str, ...]:
        names = []
        while self.peek().kind == "name" and self.peek().text not in KEYWORDS:
            t = self.next()
            if t.text.startswith("_"):
                raise ParseError("user variables may not begin with '_'", t.line, t.col)
            names.append(t.text)
        if not names:
            raise self.error("expected at least one variable name")
        return tuple(names)

    def parse_term(self) -> Term:
        t = self.peek()
        self.expect_name()
        if self.at("("):
            self.next()
            args = self.sep_by(self.parse_term, ",")
            self.expect(")")
            if self.signature is not None:
                far = self.signature.function_arities
                if t.text in far and far[t.text] != len(args):
                    raise ParseError(f"arity mismatch for {t.text}", t.line, t.col)
            return App(t.text, tuple(args))
        if t.text.startswith("_"):
            raise ParseError("user variables may not begin with '_'", t.line, t.col)
        if t.text in self.bound:
            return Var(t.text)
        if self.signature is not None and t.text in self.signature.constants:
            return Const(t.text)
        return Var(t.text)

    def parse_atom(self):
        t = self.peek()
        if t.text == "true":
            self.next()
            return Truth()
        if t.text == "false":
            self.next()
            return Falsum()
        if t.text == "(":
            self.next()
            inner = self.parse_or()
            self.expect(")")
            return inner
        term = self.parse_term()
        if self.at("="):
            self.next()
            return EqAtom(term, self.parse_term())
        if isinstance(term, App):
            # bare application in atom position: a relation atom
            if self.signature is not None:
                rar = self.signature.relation_arities
                if term.func not in rar:
                    if self.signature.has_symbol(term.func):
                        raise ParseError(
                            f"{term.func} is not a relation symbol", t.line, t.col
                        )
                elif rar[term.func] != len(term.args):
                    raise ParseError(f"arity mismatch for {term.func}", t.line, t.col)
            return RelAtom(term.func, term.args)
        raise ParseError(f"a bare term {t.text!r} is not an atom", t.line, t.col)

    def parse_and(self):
        parts = self.sep_by(self.parse_atom, "&")
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_or(self):
        parts = self.sep_by(self.parse_and, "|")
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_posex(self) -> PosEx:
        if self.at("exists"):
            self.next()
            names = self.parse_names()
            self.expect(".")
            self.bound.extend(names)
            matrix = self.parse_or()
            del self.bound[-len(names):]
            return PosEx(names, matrix)
        return PosEx((), self.parse_or())

    def parse_posex_opt_parens(self) -> PosEx:
        """A posex, possibly wrapped in one pair of parentheses (the printer
        emits `(premise) -> (conclusion)`)."""
        if self.at("("):
            save = self.pos
            try:
                self.next()
                p = self.parse_posex()
                self.expect(")")
                if self.peek().text in ("->", ";", "}") or self.at_eof():
                    return p
            except ParseError:
                pass
            self.pos = save
        return self.parse_posex()

    def parse_implication(self) -> Implication:
        if self.at("forall"):
            self.next()
            names = self.parse_names()
            self.expect(".")
        else:
            names = ()
        self.bound.extend(names)
        premise = self.parse_posex_opt_parens()
        self.expect("->")
        conclusion = self.parse_posex_opt_parens()
        if names:
            del self.bound[-len(names):]
        return Implication(names, premise, conclusion)

    def parse_hinductive(self) -> HInductiveSentence:
        """Conjuncts separated by `;`; the list ends after a `;` that is
        followed by another `;`, by `}`, by the end of input or by the next
        class-prefixed sentence."""
        conjuncts = [self.parse_implication()]
        while self.at(";"):
            self.next()
            if self.at(";") or self.at("}") or self.at_eof() or self.at_sentence():
                break
            conjuncts.append(self.parse_implication())
        return HInductiveSentence(tuple(conjuncts))

    def parse_huniversal(self) -> HUniversalSentence:
        self.expect("!")
        return HUniversalSentence(self.parse_posex())

    # general fragment: implication over quantified boolean combinations
    def parse_general(self) -> Formula:
        if self.at("forall"):
            self.next()
            names = self.parse_names()
            self.expect(".")
            self.bound.extend(names)
            sub = self.parse_general()
            del self.bound[-len(names):]
            return Forall(names, sub)
        if self.at("exists"):
            self.next()
            names = self.parse_names()
            self.expect(".")
            self.bound.extend(names)
            sub = self.parse_general()
            del self.bound[-len(names):]
            return Exists(names, sub)
        left = self.parse_general_or()
        if self.at("->"):
            self.next()
            return Implies(left, self.parse_general())
        return left

    def parse_general_or(self) -> Formula:
        parts = self.sep_by(self.parse_general_and, "|")
        return parts[0] if len(parts) == 1 else GOr(tuple(parts))

    def parse_general_and(self) -> Formula:
        parts = self.sep_by(self.parse_general_unary, "&")
        return parts[0] if len(parts) == 1 else GAnd(tuple(parts))

    def parse_general_unary(self) -> Formula:
        if self.at("!"):
            self.next()
            return Not(self.parse_general_unary())
        if self.at("("):
            # "(x" could have been the start of a term; a term never parses
            # as a general formula, so this branch is unambiguous
            self.next()
            inner = self.parse_general()
            self.expect(")")
            return inner
        if self.at("forall") or self.at("exists"):
            return self.parse_general()
        return self.parse_atom()

    # -- sentences --------------------------------------------------------

    def parse_sentence(self) -> Formula:
        """A `<class>:` prefix and the formula of that class."""
        t = self.next()
        self.expect(":")
        if t.text not in SENTENCE_CLASSES:
            raise ParseError(f"unknown formula class {t.text!r}", t.line, t.col)
        return getattr(self, SENTENCE_CLASSES[t.text])()

    def parse_sentences(self) -> List[Formula]:
        """Class-prefixed sentences separated by runs of `;`, up to (not
        including) `}` or the end of input.  None at all is an empty list."""
        out: List[Formula] = []
        while True:
            while self.at(";"):
                self.next()
            if self.at("}") or self.at_eof():
                return out
            if out and self.tokens[self.pos - 1].text != ";":
                raise self.error(f"expected ';', found {self.peek().text!r}")
            if not self.at_sentence():
                raise self.error("expected a class-prefixed sentence")
            out.append(self.parse_sentence())


def parse_formula(
    text: str, signature: Optional[Signature] = None
) -> Formula:
    """Parse a single declared-class formula.

    Accepts `hinductive:`, `huniversal:`, `positive:` and `general:` prefixed
    texts; an unprefixed text is parsed as a positive formula, or as a bare
    term if it is one.
    """
    p = Parser(text, signature)
    if p.peek().kind == "name" and p.tokens[1].text == ":":
        out = p.parse_sentence()
        p.expect_eof()
        return out
    # unprefixed: try a positive formula, else a bare term
    try:
        out = p.parse_posex()
        p.expect_eof()
        return out
    except ParseError:
        p.pos = 0
        p.bound.clear()
        term = p.parse_term()
        p.expect_eof()
        return term  # type: ignore[return-value]


def parse_sentences(text: str, signature: Optional[Signature] = None) -> List[Formula]:
    """Parse a `;`-separated list of class-prefixed sentences."""
    p = Parser(text, signature)
    out = p.parse_sentences()
    p.expect_eof()
    if not out:
        raise ParseError("expected a class-prefixed sentence", 1, 1)
    return out
