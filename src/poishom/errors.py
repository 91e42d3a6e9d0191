"""Exception types shared across the package.

Every mathematical failure carries a machine-readable witness so callers
(and the CLI) can reproduce the discrepancy with library calls alone.
"""

from __future__ import annotations


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


class JacobiError(PoishomError):
    """A bivector failed the Jacobi identity.

    ``witness`` is a tuple ``(i, j, k, value)`` of 0-based coordinate
    indices and the nonzero polynomial {{x_i,x_j},x_k} + {{x_j,x_k},x_i}
    + {{x_k,x_i},x_j}.
    """

    def __init__(self, witness):
        i, j, k, poly = witness
        super().__init__(
            f"Jacobi identity fails on coordinates ({i}, {j}, {k}): "
            f"jacobiator = {poly}"
        )
        self.witness = witness


class FlatnessError(PoishomError):
    """A module bracket failed the right-Lie-module (flatness) condition.

    ``witness`` is ``(section, i, j, discrepancy)`` where ``discrepancy``
    is the nonzero vector {e_a,{x_i,x_j}} - {{e_a,x_i},x_j} + {{e_a,x_j},x_i}.
    """

    def __init__(self, witness):
        a, i, j, disc = witness
        super().__init__(
            f"flatness fails on section {a}, coordinates ({i}, {j}): "
            f"discrepancy = [{', '.join(str(p) for p in disc)}]"
        )
        self.witness = witness


class PoissonFieldError(PoishomError):
    """A vector field is not a Poisson vector field.

    ``witness`` is ``(i, j, defect)`` with the nonzero defect polynomial
    phi({x_i,x_j}) - {phi(x_i),x_j} - {x_i,phi(x_j)}.
    """

    def __init__(self, witness):
        i, j, poly = witness
        super().__init__(
            f"not a Poisson vector field: defect on coordinates ({i}, {j}) "
            f"is {poly}"
        )
        self.witness = witness


class ModularFieldError(PoishomError):
    """The modular vector field failed its Lie-derivative cross-check.

    ``witness`` is ``(i, lie_derivative, expected)``: the 0-based coordinate
    and the two top forms L_{X_{x_i}} mu and phi(x_i) mu, which differ.
    """

    def __init__(self, witness):
        i, lhs, rhs = witness
        super().__init__(
            f"modular field cross-check failed on coordinate {i + 1}: "
            f"Lie derivative gives {lhs}, expected {rhs}"
        )
        self.witness = witness


class GradedModeError(PoishomError):
    """Graded-mode requirement violated (non-homogeneous input data)."""
