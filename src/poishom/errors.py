"""Exception types shared across the package.

Every mathematical failure carries a machine-readable witness so callers
(and the CLI) can reproduce the discrepancy with library calls alone.
"""

from __future__ import annotations

import json


class PoishomError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PoishomError):
    """Syntax error in polynomial text. Carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SchemaError(PoishomError):
    """Problem-file validation error. Carries the path of the bad field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DimensionError(PoishomError):
    """Mismatched variable counts, ranks, degrees or arities."""


def _names(names, nvars):
    return [f"x{i + 1}" for i in range(nvars)] if names is None else names


class CheckError(PoishomError):
    """A constructor gate failed; ``witness`` is the tuple that shows it.

    ``payload(names)`` renders the witness with coordinate names (x1..xn
    when ``names`` is None; sections count from 1). The message is
    ``payload()`` as sorted JSON, the form the CLI prints after ``witness:``.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(json.dumps(self.payload(), sort_keys=True))

    def payload(self, names=None) -> dict:
        raise NotImplementedError


class JacobiError(CheckError):
    """A bivector failed the Jacobi identity.

    ``witness`` is a tuple ``(i, j, k, value)`` of 0-based coordinate
    indices and the nonzero polynomial {{x_i,x_j},x_k} + {{x_j,x_k},x_i}
    + {{x_k,x_i},x_j}.
    """

    def payload(self, names=None) -> dict:
        i, j, k, poly = self.witness
        names = _names(names, poly.nvars)
        return {"check": "jacobi", "triple": [names[i], names[j], names[k]],
                "jacobiator": poly.text(names)}


class FlatnessError(CheckError):
    """A module bracket failed the right-Lie-module (flatness) condition.

    ``witness`` is ``(section, i, j, discrepancy)`` where ``discrepancy``
    is the nonzero vector {e_a,{x_i,x_j}} - {{e_a,x_i},x_j} + {{e_a,x_j},x_i}.
    """

    def payload(self, names=None) -> dict:
        a, i, j, disc = self.witness
        names = _names(names, disc[0].nvars)
        return {"check": "flatness", "section": a + 1, "pair": [names[i], names[j]],
                "discrepancy": [p.text(names) for p in disc]}


class PoissonFieldError(CheckError):
    """A vector field is not a Poisson vector field.

    ``witness`` is ``(i, j, defect)`` with the nonzero defect polynomial
    phi({x_i,x_j}) - {phi(x_i),x_j} - {x_i,phi(x_j)}.
    """

    def payload(self, names=None) -> dict:
        i, j, poly = self.witness
        names = _names(names, poly.nvars)
        return {"check": "poisson_vector_field", "pair": [names[i], names[j]],
                "defect": poly.text(names)}


class ModularFieldError(CheckError):
    """The modular vector field failed its Lie-derivative cross-check.

    ``witness`` is ``(i, lie_derivative, expected)``: the 0-based coordinate
    and the two top forms L_{X_{x_i}} mu and phi(x_i) mu, which differ.
    """

    def payload(self, names=None) -> dict:
        i, lhs, rhs = self.witness
        names = _names(names, lhs.nvars)
        top = tuple(range(len(names)))  # both sides are top forms
        return {"check": "modular_field", "coordinate": names[i],
                "lie_derivative": lhs.coefficient(top).text(names),
                "expected": rhs.coefficient(top).text(names)}


class GradedModeError(PoishomError):
    """Graded-mode requirement violated (non-homogeneous input data)."""
