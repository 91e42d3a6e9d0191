"""Exact multivariate polynomials over the rationals.

``Poly`` is the scalar substrate for everything else in the package: forms,
multivector fields and bracket matrices all carry ``Poly`` coefficients.
A polynomial is stored canonically as a sparse map from exponent vectors
(tuples of nonnegative ints, one entry per variable) to nonzero exact
rational coefficients, so equality is a plain map comparison and the zero
polynomial is the empty map.

A coefficient is a Python ``int`` when it is integral and a
``fractions.Fraction`` otherwise. Nearly every input is integral, and int
arithmetic is much cheaper than ``Fraction`` arithmetic, so values
are normalised where they enter (the constructors and ``scale``), and
results of arithmetic are left as they come: an int stays an int, and a
``Fraction`` with denominator 1 may appear. Such a value is ``==`` and
hash-equal to its int and prints the same, so equality, hashing and text
do not depend on which form a coefficient has.

Variable indices are 0-based throughout the library; only rendered text and
problem files use 1-based conventions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import DimensionError, ParseError

Exponents = tuple  # tuple[int, ...] of length nvars

# Largest exponent and total degree the parser builds; beyond it, expanding
# the input or enumerating its weight slices would not finish.
MAX_PARSE_DEGREE = 32

# Largest number of terms a product or power in the parser may create,
# predicted from the operands before multiplying; beyond it, expanding the
# input, and the Jacobi check (quadratic in the term count), run for minutes.
MAX_PARSE_TERMS = 1000

# Deepest parenthesis nesting the parser follows; each level costs a few
# interpreter frames, so far deeper input would end in a RecursionError.
MAX_PARSE_NESTING = 100

# Longest digit run the parser reads as one number. It is the smallest limit
# Python lets ``sys.set_int_max_str_digits`` set, so ``int()`` accepts any
# shorter run under every interpreter setting.
MAX_PARSE_DIGITS = 640


def _int_or_fraction(value):
    """``value`` as a coefficient: an ``int`` when it is integral, else a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(value)!r}")


class Poly:
    """A multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero coefficients, each an ``int``
    or a ``Fraction``; see the module docstring for when each appears.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping | Iterable = ()):
        if nvars < 1:
            raise DimensionError("nvars must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DimensionError(
                    f"exponent vector {exps} has length {len(exps)}, expected {nvars}"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise ValueError(f"exponents must be nonnegative integers: {exps}")
            coeff = _int_or_fraction(coeff) + canon.get(exps, 0)
            if coeff:
                canon[exps] = coeff
            else:
                canon.pop(exps, None)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):  # immutable by contract
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, nvars: int, terms: dict) -> "Poly":
        # internal fast path: ``terms`` must already be canonical
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise DimensionError(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff=1) -> "Poly":
        return cls(nvars, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # ring structure

    def _check_compatible(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"mismatched variable counts: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, 0) + coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        return Poly._raw(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return Poly._raw(self.nvars, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.constant(self.nvars, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:  # the square after the top bit would go unused
                base = base * base
        return result

    def scale(self, value) -> "Poly":
        value = _int_or_fraction(value)
        if not value:
            return Poly._raw(self.nvars, {})
        return Poly._raw(self.nvars, {e: c * value for e, c in self.terms.items()})

    # ------------------------------------------------------------------
    # calculus and grading

    def partial(self, index: int) -> "Poly":
        """Formal partial derivative with respect to the ``index``-th variable."""
        if not 0 <= index < self.nvars:
            raise DimensionError(
                f"variable index {index} out of range for {self.nvars} variables"
            )
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[index] = e - 1
            out[tuple(lowered)] = coeff * e
        return Poly._raw(self.nvars, out)

    def homogeneous_degree(self):
        """The common monomial degree, ``None`` for zero.

        Raises ``ValueError`` when the polynomial is not homogeneous.
        """
        degrees = {sum(e) for e in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"polynomial {self} is not homogeneous")
        return degrees.pop()

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, exps: Sequence[int]) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # text form
    #
    # Monomials are ordered graded-lexicographically (higher total degree
    # first, then lexicographic on exponent vectors) so that printing, and
    # every basis enumeration built on the same order, is deterministic.

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def text(self, names: Sequence[str] | None = None) -> str:
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        elif len(names) != self.nvars:
            raise DimensionError("wrong number of variable names")
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            chunks.append(("-" if coeff < 0 else "+", body))
        sign, body = chunks[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {self.text()!r})"

    # ------------------------------------------------------------------
    # parsing

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "Poly":
        """Parse polynomial text over the named variables.

        Grammar (whitespace insignificant)::

            expr   := ['+'|'-'] term (('+'|'-') term)*
            term   := factor ('*' factor)*
            factor := rational | name ['^' nat] | '(' expr ')' ['^' nat]

        with ``rational := int ['/' nat]``. A power or product whose degree
        would exceed ``MAX_PARSE_DEGREE`` (a power of a constant counting
        as degree 1), or whose predicted number of terms would exceed
        ``MAX_PARSE_TERMS`` (t1*t2 for a product, C(t+e-1, e) for a t-term
        base to the power e), raises ``ParseError`` before anything is
        multiplied; so does parenthesis nesting deeper than
        ``MAX_PARSE_NESTING`` or a number longer than ``MAX_PARSE_DIGITS``.
        """
        return _Parser(text, variables).parse()


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names: {list(variables)}")
        self.text = text
        self.pos = 0
        self.depth = 0  # open parentheses around the current position
        self.variables = list(variables)
        self.nvars = len(self.variables)

    # -- lexer ----------------------------------------------------------

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self, char: str):
        if self._peek() != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def _number(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        _check_limit("digit count", self.pos - start, MAX_PARSE_DIGITS, start)
        return int(self.text[start : self.pos])

    def _name(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    # -- grammar --------------------------------------------------------

    def parse(self) -> Poly:
        result = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected trailing input {self.text[self.pos]!r}", self.pos)
        return result

    def _expr(self) -> Poly:
        negate = self._peek() == "-"
        if self._peek() in ("+", "-"):
            self.pos += 1
        acc = -self._term() if negate else self._term()
        while self._peek() in ("+", "-"):
            negate = self._peek() == "-"
            self.pos += 1
            acc = acc + (-self._term() if negate else self._term())
        return acc

    def _term(self) -> Poly:
        acc = self._factor()
        while self._peek() == "*":
            self.pos += 1
            start = self.pos
            factor = self._factor()
            _check_limit("degree", _degree(acc) + _degree(factor), MAX_PARSE_DEGREE, start)
            terms = len(acc.terms) * len(factor.terms)
            _check_limit("term count", terms, MAX_PARSE_TERMS, start)
            acc = acc * factor
        return acc

    def _factor(self) -> Poly:
        ch = self._peek()
        if ch == "(":
            self.depth += 1
            _check_limit("nesting depth", self.depth, MAX_PARSE_NESTING, self.pos)
            self.pos += 1
            inner = self._expr()
            self._take(")")
            self.depth -= 1
            return self._maybe_power(inner)
        if ch.isdecimal():
            num = self._number()
            if self._peek() == "/":
                self.pos += 1
                den_pos = self.pos
                den = self._number()
                if den == 0:
                    raise ParseError("zero denominator", den_pos)
                return Poly.constant(self.nvars, Fraction(num, den))
            return Poly.constant(self.nvars, num)
        if ch.isalpha() or ch == "_":
            start = self.pos
            name = self._name()
            if name not in self.variables:
                raise ParseError(f"unknown variable {name!r}", start)
            var = Poly.variable(self.nvars, self.variables.index(name))
            return self._maybe_power(var)
        if ch == "":
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def _maybe_power(self, base: Poly) -> Poly:
        if self._peek() == "^":
            self.pos += 1
            start = self.pos
            exponent = self._number()
            _check_limit("degree", max(_degree(base), 1) * exponent, MAX_PARSE_DEGREE, start)
            # a t-term power has at most as many terms as there are
            # monomials of degree e in t variables
            terms = comb(max(len(base.terms), 1) + exponent - 1, exponent)
            _check_limit("term count", terms, MAX_PARSE_TERMS, start)
            return base**exponent
        return base


def _degree(poly: Poly) -> int:
    return max(map(sum, poly.terms), default=0)


def _check_limit(what: str, value: int, limit: int, position: int):
    if value > limit:
        raise ParseError(f"{what} {value} exceeds the limit {limit}", position)


def monomials_of_degree(nvars: int, degree: int):
    """All exponent vectors of the given total degree, lex-descending.

    The order matches ``Poly.sorted_terms`` within a degree, so slice bases
    and printed polynomials agree.
    """
    if degree < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out
