"""Coordinate exterior calculus on polynomial R^n.

Differential forms and multivector fields are stored as sparse maps from
strictly increasing tuples of 0-based variable indices to ``Poly``
coefficients: a form is sum of ``c_I dx_I`` and a multivector is a sum of
``c_I Dx_I`` (``Dx_i`` denoting the coordinate derivation d/dx_i).

Module-valued elements of rank r are plain r-tuples of forms (chain side,
elements of W (x) Omega^q) or of multivectors (cochain side, multiderivations
with values in the free module W); this componentwise representation is the
coordinate form of the isomorphism between W (x) X^k and multiderivations
with values in W.

Signs: every shuffle sign comes from ``wedge_indices``, the sign of
dx_I ^ dx_J = sign dx_(I+J). Wedge products and d use it directly,
``interior_product`` contracts dx_I = sign dx_J ^ dx_(I-J) by Dx_J, and
``MultiVector.evaluate`` pairs X with the wedge df_1 ^ ... ^ df_k.

Degrees are honest: every element keeps the degree its operation gives it,
also outside 0..n (d of a top form has degree n+1, a contraction by more
than the form carries has degree q-k < 0). No index tuple has such a
degree, so the element is zero there, and sums check degrees as usual.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import DimensionError
from .poly import Poly


def _accumulate(out: dict, key, piece: Poly):
    """Add ``piece`` to ``out[key]``, keeping only nonzero coefficients."""
    acc = out.get(key)
    acc = piece if acc is None else acc + piece
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc


def wedge_indices(left: tuple, right: tuple):
    """Merge two increasing index tuples: dx_left ^ dx_right = sign dx_merged.

    Returns (sign, merged), or None on a repeated index (the wedge
    vanishes). The sign is (-1)**(pairs a in left, b in right with a > b),
    the sign of the shuffle sorting the concatenation. Every shuffle sign of
    the calculus comes from here.
    """
    if not set(left).isdisjoint(right):
        return None
    inversions = sum(1 for a in left for b in right if a > b)
    return (-1 if inversions % 2 else 1, tuple(sorted(left + right)))


class _Alternating:
    """Shared sparse storage for forms and multivectors."""

    __slots__ = ("nvars", "degree", "terms")
    _basis_symbol = "?"

    def __init__(self, nvars: int, degree: int, terms: Mapping | Iterable = ()):
        if nvars < 1:
            raise DimensionError("nvars must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms
        canon = {}
        for idx, poly in items:
            idx = tuple(idx)
            if len(idx) != degree:
                raise DimensionError(f"index tuple {idx} does not have degree {degree}")
            if any(not 0 <= i < nvars for i in idx) or any(
                idx[t] >= idx[t + 1] for t in range(len(idx) - 1)
            ):
                raise DimensionError(f"index tuple {idx} not strictly increasing in range")
            if not isinstance(poly, Poly):
                raise TypeError("coefficients must be Poly values")
            if poly.nvars != nvars:
                raise DimensionError("coefficient variable count mismatch")
            if poly.is_zero():
                continue
            _accumulate(canon, idx, poly)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", canon)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _raw(cls, nvars: int, degree: int, terms: dict):
        # internal fast path: ``terms`` must already be canonical
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, nvars: int, degree: int):
        """The zero element of the given degree, which may lie outside 0..nvars."""
        return cls(nvars, degree)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, idx: Sequence[int]) -> Poly:
        return self.terms.get(tuple(idx), Poly.zero(self.nvars))

    def _check_addable(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.nvars != other.nvars:
            raise DimensionError("mismatched variable counts")

    def __add__(self, other):
        self._check_addable(other)
        if self.degree != other.degree:
            raise DimensionError(f"cannot add degrees {self.degree} and {other.degree}")
        out = dict(self.terms)
        for idx, poly in other.terms.items():
            _accumulate(out, idx, poly)
        return type(self)._raw(self.nvars, self.degree, out)

    def __neg__(self):
        return type(self)._raw(
            self.nvars, self.degree, {i: -p for i, p in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        """Multiply every coefficient by a Poly or rational scalar."""
        if isinstance(value, (int, Fraction)):
            if not value:
                return type(self)._raw(self.nvars, self.degree, {})
            return type(self)._raw(
                self.nvars, self.degree,
                {i: p.scale(value) for i, p in self.terms.items()},
            )
        if value.is_zero():
            return type(self)._raw(self.nvars, self.degree, {})
        return type(self)._raw(
            self.nvars, self.degree, {i: p * value for i, p in self.terms.items()}
        )

    def wedge(self, other):
        """Exterior product with another element of the same kind."""
        self._check_addable(other)
        total = self.degree + other.degree
        out = {}
        for i1, p1 in self.terms.items():
            for i2, p2 in other.terms.items():
                merged = wedge_indices(i1, i2)
                if merged is None:
                    continue
                sign, idx = merged
                piece = (p1 * p2).scale(sign)
                _accumulate(out, idx, piece)
        return type(self)._raw(self.nvars, total, out)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.nvars, self.degree, self.terms) == (other.nvars, other.degree, other.terms)

    def __hash__(self):
        return hash(
            (type(self).__name__, self.nvars, self.degree, frozenset(self.terms.items()))
        )

    def text(self) -> str:
        if not self.terms:
            return "0"
        sym = self._basis_symbol
        chunks = []
        for idx in sorted(self.terms):
            poly = self.terms[idx]
            basis = "^".join(f"{sym}{i + 1}" for i in idx)
            ptext = poly.text()
            if not basis:
                chunks.append(ptext)
            elif ptext == "1":
                chunks.append(basis)
            elif ptext == "-1":
                chunks.append(f"-{basis}")
            elif " " in ptext:
                chunks.append(f"({ptext})*{basis}")
            else:
                chunks.append(f"{ptext}*{basis}")
        return " + ".join(chunks)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"{type(self).__name__}({self.nvars}, deg={self.degree}, {self.text()!r})"


class Form(_Alternating):
    """A differential form with polynomial coefficients."""

    _basis_symbol = "dx"

    def d(self) -> "Form":
        """Exterior derivative, of degree q+1; zero of degree n+1 on a top form."""
        out = {}
        for idx, poly in self.terms.items():
            for i in range(self.nvars):
                merged = wedge_indices((i,), idx)
                if merged is None:
                    continue
                dp = poly.partial(i)
                if dp.is_zero():
                    continue
                sign, key = merged
                _accumulate(out, key, dp.scale(sign))
        return Form._raw(self.nvars, self.degree + 1, out)


class MultiVector(_Alternating):
    """An alternating multivector field with polynomial coefficients."""

    _basis_symbol = "Dx"

    def evaluate(self, *functions: Poly) -> Poly:
        """Apply the multiderivation to functions: X(df_1, ..., df_k).

        X pairs with the k-form df_1 ^ ... ^ df_k: the value is the sum of
        c_J (df_1 ^ ... ^ df_k)_J over the terms c_J Dx_J of X, so the
        gradients need only the partials at indices that occur in some J.
        """
        if len(functions) != self.degree:
            raise DimensionError(
                f"degree-{self.degree} multivector applied to {len(functions)} arguments"
            )
        n = self.nvars
        if self.degree == 0:
            return self.coefficient(())
        result = Poly._raw(n, {})
        if not self.terms or not all(functions):  # a zero argument has df = 0
            return result
        used = sorted({i for idx in self.terms for i in idx})
        grads = [Form._raw(n, 1, {(i,): p for i in used if (p := f.partial(i))})
                 for f in functions]
        product = grads[0]
        for grad in grads[1:]:
            product = product.wedge(grad)
        for idx, coeff in self.terms.items():
            value = product.terms.get(idx)
            if value is not None:
                result = result + value * coeff
        return result


class _ModuleElement:
    """An r-tuple of components of one degree over the module basis e_1..e_r."""

    __slots__ = ("components",)
    component_cls = _Alternating

    def __init__(self, components: Sequence):
        components = tuple(components)
        if not components:
            raise DimensionError("module elements need rank >= 1")
        cls = type(self).component_cls
        for c in components:
            if not isinstance(c, cls):
                raise TypeError(f"components must be {cls.__name__} values")
        if len({(c.nvars, c.degree) for c in components}) > 1:
            raise DimensionError("components of mixed variable counts or degrees")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, rank: int, nvars: int, degree: int):
        return cls([cls.component_cls.zero(nvars, degree)] * rank)

    @classmethod
    def single(cls, rank: int, section: int, component):
        """The element carrying ``component`` on basis section ``section``."""
        if not 0 <= section < rank:
            raise DimensionError(f"section {section} out of range for rank {rank}")
        zero = cls.component_cls.zero(component.nvars, component.degree)
        return cls([component if a == section else zero for a in range(rank)])

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def degree(self) -> int:
        return self.components[0].degree

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.rank != other.rank:
            raise DimensionError("mismatched ranks")
        return type(self)([a + b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return type(self)([-c for c in self.components])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        return type(self)([c.scale(value) for c in self.components])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return len(self.components) == len(other.components) and all(
            a == b for a, b in zip(self.components, other.components)
        )

    def __hash__(self):
        return hash((type(self).__name__, self.components))

    def text(self) -> str:
        return " | ".join(f"e{a + 1}: {c.text()}" for a, c in enumerate(self.components))

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"


class ModuleChainElement(_ModuleElement):
    """An element of W (x) Omega^q for the free rank-r module W."""

    component_cls = Form


class ModuleCochainElement(_ModuleElement):
    """A W-valued multiderivation of degree k, stored componentwise."""

    component_cls = MultiVector

    def evaluate(self, *functions: Poly) -> tuple:
        """Value in W on the given functions, as an r-tuple of Poly."""
        return tuple(c.evaluate(*functions) for c in self.components)


def interior_product(field, omega: Form):
    """Contraction of a form by a multivector (scalar or module-valued).

    For a scalar ``MultiVector`` of degree k the result is a ``Form`` of
    degree q-k; for a ``ModuleCochainElement`` it is the componentwise
    ``ModuleChainElement``. A degree-0 field acts by multiplication, and for
    q < k the result is the zero of degree q-k.

    The implementation works directly on index tuples: Dx_J contracts dx_I
    to zero unless J lies inside I, and then, writing dx_I = sign dx_J ^
    dx_(I-J) by ``wedge_indices``, to sign dx_(I-J).
    """
    if isinstance(field, ModuleCochainElement):
        return ModuleChainElement([interior_product(c, omega) for c in field.components])
    if not isinstance(field, MultiVector):
        raise TypeError("expected a MultiVector or ModuleCochainElement")
    if not isinstance(omega, Form):
        raise TypeError("expected a Form")
    if field.nvars != omega.nvars:
        raise DimensionError("mismatched variable counts")
    k, q = field.degree, omega.degree
    if k > q:
        return Form._raw(omega.nvars, q - k, {})
    out = {}
    for idx_j, a in field.terms.items():
        for idx_i, b in omega.terms.items():
            key = tuple(i for i in idx_i if i not in idx_j)
            if len(key) != q - k:
                continue  # J is not contained in I
            sign, _ = wedge_indices(idx_j, key)
            _accumulate(out, key, (a * b).scale(sign))
    return Form._raw(omega.nvars, q - k, out)


def lie_derivative(vector: MultiVector, omega: Form) -> Form:
    """Lie derivative of a form along a vector field (Cartan's formula)."""
    if vector.degree != 1:
        raise DimensionError("lie_derivative expects a degree-1 field")
    return interior_product(vector, omega.d()) + interior_product(vector, omega).d()
