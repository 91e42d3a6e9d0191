"""Exact ranks, Betti numbers per weight, and the duality verifier.

Each slice is ranked straight from its sparse columns (``matrix_rank``
takes sparse rows, and a matrix has the rank of its transpose), so no dense
matrix is built. Elimination is fraction-free over Python ints: no entry is
ever rounded. A wrong rank would falsify the duality theorems spuriously,
which is why no floating-point or modular-arithmetic shortcut is taken.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from . import __version__
from .calculus import ModuleCochainElement, MultiVector
from .complexes import (
    assemble_slice,
    basis_image,
    blacktriangle,
    blacktriangle_basis,
    chain_differential,
    cochain_differential,
    element_from_basis,
    graded_weight_shift,
    slice_basis,
)
from .errors import GradedModeError
from .pmodule import PoissonModule, twist
from .poisson import PoissonStructure, VolumeForm
from .poly import Poly, _int_or_fraction, monomials_of_degree


def _primitive(row: dict) -> dict:
    """A sparse integer row divided by its content (the gcd of its entries)."""
    content = math.gcd(*row.values())
    return {j: c // content for j, c in row.items()} if content > 1 else row


def _blocks(rows, ncols: int):
    """Group sparse rows over columns 0..ncols-1 into the connected components
    of the row/column incidence graph (union-find over columns)."""
    parent = list(range(ncols))

    def find(j):
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]  # path halving
        return j

    for row in rows:
        first, *rest = map(find, row)
        for root in rest:
            if root != first:
                parent[root] = first
    blocks = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    return blocks.values()


def _block_rank(rows) -> int:
    """Rank of one block of primitive integer rows by sparse fraction-free
    elimination with Markowitz-style pivoting."""
    rank = 0
    while rows:
        pivot = rows.pop(min(range(len(rows)), key=lambda i: len(rows[i])))
        col = min(pivot, key=lambda j: sum(j in row for row in rows))
        lead = pivot[col]
        rank += 1
        reduced = []
        for row in rows:
            entry = row.get(col)
            if entry:
                row = {j: lead * c for j, c in row.items()}
                for j, c in pivot.items():
                    c = row.get(j, 0) - entry * c
                    if c:
                        row[j] = c
                    else:
                        del row[j]
                if not row:
                    continue
                row = _primitive(row)
            reduced.append(row)
        rows = reduced
    return rank


def matrix_rank(matrix) -> int:
    """Exact rank of a rational matrix given as an iterable of sparse rows.

    Each row maps column keys, any hashable labels, to entries: ints (bools
    included) or ``Fraction``s. Anything else, a float or ``None`` say,
    raises ``TypeError``, zero or not. The caller's mappings are not
    changed. A matrix has the rank of its transpose, so the columns of a
    ``ComplexSlice`` are passed as its rows. The keys are numbered as they
    are read, so union-find and elimination hash small ints. Each nonzero
    row becomes a sparse primitive integer row, scaled by the lcm of its
    denominators. Rows that share no column, directly or through other rows,
    cannot affect each other's pivots, so the rows are split into such
    blocks and the block ranks are added. Within a block, the row with the
    fewest nonzeros is the pivot row and its column found in the fewest
    remaining rows is the pivot column (Markowitz-style, to limit fill-in);
    every row meeting that column becomes lead*row - entry*pivot_row,
    divided by its content.
    """
    ids: dict = {}
    sparse = []
    for row in matrix:
        entries = {}
        for key, c in row.items():
            if type(c) is not int:
                c = _int_or_fraction(c)  # refuses anything inexact, zero or not
            if c:
                entries[ids.setdefault(key, len(ids))] = c
        if entries:
            scale = math.lcm(*(c.denominator for c in entries.values()))
            if scale > 1:
                entries = {j: c.numerator * (scale // c.denominator) for j, c in entries.items()}
            sparse.append(_primitive(entries))
    return sum(_block_rank(block) for block in _blocks(sparse, len(ids)))


def _ranked(cache, module, piece):
    """Record (domain dimension, matrix rank) of a slice of ``module``."""
    key = (module, piece.kind, piece.degree, piece.weight)
    cache[key] = (len(piece.domain_basis), matrix_rank(piece.columns))


def _slice_rank(structure, module, kind, degree, weight, cache):
    """(domain dimension, matrix rank) of one slice, memoized per run."""
    key = (module, kind, degree, weight)
    if key not in cache:
        _ranked(cache, module, assemble_slice(structure, module, kind, degree, weight))
    return cache[key]


def betti(structure: PoissonStructure, module: PoissonModule,
          kind: str, degree: int, weight: int, _cache: dict | None = None) -> int:
    """dim ker(outgoing differential) - rank(incoming differential).

    Graded mode only. Incoming means the differential landing in slice
    (degree, weight): for cochains it leaves (degree-1, weight-shift), for
    chains (degree+1, weight-shift).
    """
    cache = {} if _cache is None else _cache
    shift = graded_weight_shift(structure, module)
    dimension, outgoing_rank = _slice_rank(structure, module, kind, degree, weight, cache)
    incoming_degree = degree - 1 if kind == "cochain" else degree + 1
    _, incoming_rank = _slice_rank(
        structure, module, kind, incoming_degree, weight - shift, cache
    )
    return dimension - outgoing_rank - incoming_rank


@dataclass(frozen=True)
class BettiTable:
    """Dimensions of HP per (degree, weight), with provenance metadata."""

    kind: str  # "homology" | "cohomology"
    entries: dict  # (degree, weight) -> int
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "entries": [
                {"degree": k, "weight": w, "dim": d}
                for (k, w), d in sorted(self.entries.items())
            ],
            "metadata": dict(self.metadata),
        }


def structure_digest(bivector: MultiVector, module: PoissonModule,
                     mu: VolumeForm | None = None) -> str:
    """Stable hash of the mathematical input data."""
    pieces = [str(bivector.nvars), bivector.text(), str(module.rank)]
    for m in module.brackets:
        for row in m:
            pieces.extend(p.text() for p in row)
    if mu is not None:
        pieces.append(str(mu.coefficient))
    return hashlib.sha256("|".join(pieces).encode()).hexdigest()[:16]


def spec_digest(bivector: MultiVector, module: PoissonModule, mu: VolumeForm,
                params: dict) -> str:
    """Stable hash of what a run computes: the bivector, the module it works
    on (after any twist), the volume, the run parameters and the package
    version. It takes the bivector, not a ``PoissonStructure``, so a run
    whose Jacobi check fails still has a digest."""
    pieces = [structure_digest(bivector, module, mu), __version__]
    pieces.extend(f"{key}={value}" for key, value in sorted(params.items()))
    return hashlib.sha256("|".join(pieces).encode()).hexdigest()[:16]


def _slices(kind: str, n: int, max_weight: int) -> list:
    """The (degree, weight) pairs of the nonempty slices up to ``max_weight``,
    by degree, then weight: cochain slices in degree k start at weight -k,
    chain slices at weight +k."""
    return [(k, w) for k in range(n + 1)
            for w in range(-k if kind == "cochain" else k, max_weight + 1)]


def betti_table(structure: PoissonStructure, module: PoissonModule,
                kind: str, max_weight: int) -> BettiTable:
    """Betti numbers for all degrees 0..n and weights up to ``max_weight``.

    Only the nonempty slices are listed (see ``_slices``). The metadata
    records the weight cap, so absence of (co)homology is only ever claimed
    within it.
    """
    if kind not in ("homology", "cohomology"):
        raise ValueError(f"unknown kind {kind!r}")
    slice_kind = "cochain" if kind == "cohomology" else "chain"
    n = structure.nvars
    shift = graded_weight_shift(structure, module)
    cache: dict = {}
    entries = {
        (degree, weight): betti(structure, module, slice_kind, degree, weight, _cache=cache)
        for degree, weight in _slices(slice_kind, n, max_weight)
    }
    metadata = {
        "structure": structure_digest(structure.bivector, module),
        "weight_shift": shift,
        "max_weight": max_weight,
        "rank": module.rank,
        "nvars": n,
    }
    return BettiTable(kind, entries, metadata)


# ----------------------------------------------------------------------
# duality verification


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the chain-level and Betti-level duality checks.

    The chain-level part verifies, one monomial basis column at a time, that
    the twisted chain differential after the signed volume contraction
    equals the contraction of the cochain differential; its failures list
    the basis vectors, then the random trials. The Betti part (graded mode:
    ``weight_shift`` set) compares dim HP^k(W) at weight w with
    dim HP_{n-k}(W twisted by the opposite modular field) at weight w+n.
    """

    nvars: int
    rank: int
    modular_field: tuple  # component polynomials
    max_weight: int
    trials: int
    seed: int
    spec_digest: str
    diagram_total: int
    diagram_failures: list
    weight_shift: int | None  # None outside graded mode
    graded_note: str
    betti_pairs: list

    @property
    def graded(self) -> bool:
        return self.weight_shift is not None

    @property
    def betti_failures(self) -> int:
        return sum(not pair["equal"] for pair in self.betti_pairs)

    @property
    def diagram_ok(self) -> bool:
        return not self.diagram_failures

    @property
    def betti_ok(self) -> bool:
        return self.betti_failures == 0

    def ok(self) -> bool:
        return self.diagram_ok and self.betti_ok

    def to_dict(self, names=None) -> dict:
        def pt(p):
            return p.text(names)

        return {
            "nvars": self.nvars,
            "rank": self.rank,
            "modular_field": [pt(p) for p in self.modular_field],
            "max_weight": self.max_weight,
            "trials": self.trials,
            "seed": self.seed,
            "spec_digest": self.spec_digest,
            "diagram": {
                "checked": self.diagram_total,
                "random_checked": self.trials,
                "failures": self.diagram_failures,
                "ok": self.diagram_ok,
            },
            "betti": {
                "computed": self.graded,
                "note": self.graded_note,
                "weight_shift": self.weight_shift,
                "pairs": self.betti_pairs,
                "failures": self.betti_failures,
                "ok": self.betti_ok,
            },
            "ok": self.ok(),
        }


def random_cochain_element(rng: random.Random, module: PoissonModule,
                           degree: int) -> ModuleCochainElement:
    """Seeded random element of the cochain space in the given degree.

    Distribution (documented for reproducibility): up to 3 summands; each
    picks a section, an index tuple, a monomial of total degree <= 4 and a
    nonzero integer coefficient in -3..3.
    """
    n = module.nvars
    tuples = list(combinations(range(n), degree))
    element = ModuleCochainElement.zero(module.rank, n, degree)
    for _ in range(rng.randint(1, 3)):
        section = rng.randrange(module.rank)
        idx = tuples[rng.randrange(len(tuples))]
        mdeg = rng.randint(0, 4)
        monos = monomials_of_degree(n, mdeg)
        exps = monos[rng.randrange(len(monos))]
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        comp = MultiVector(n, degree, {idx: Poly.monomial(n, exps, coeff)})
        element = element + ModuleCochainElement.single(module.rank, section, comp)
    return element


def _diagram_check(structure, module, twisted, mu, element):
    """Both routes around the duality square; returns (lhs, rhs)."""
    lhs = chain_differential(structure, twisted, blacktriangle(mu, element))
    rhs = blacktriangle(mu, cochain_differential(structure, module, element))
    return lhs, rhs


def _failure(degree, element, lhs, rhs) -> dict:
    return {"degree": degree, "element": element.text(), "lhs": lhs.text(), "rhs": rhs.text()}


def verify_duality(structure: PoissonStructure, module: PoissonModule,
                   mu: VolumeForm, max_weight: int = 6, trials: int = 0,
                   seed: int = 0) -> DualityReport:
    """Verify the twisted duality square, then the Betti equalities.

    Chain-level pass: for every monomial basis vector e of the cochain
    slices (k, w) with w <= ``max_weight``, check exactly that the twisted
    chain differential of T e equals T of the cochain differential of e,
    where T is ``blacktriangle``. T relabels and scales basis vectors, so
    this compares columns: in graded mode those of the cochain slice (k, w)
    and the twisted chain slice (n-k, w+n), whose ranks it records;
    otherwise those of ``basis_image``. Failing basis vectors and the
    ``trials`` seeded random elements go through the object-level
    differentials, which give the witnesses. Betti-level pass (graded mode
    only), over the same (k, w): dim HP^k(W) at weight w must equal
    dim HP_{n-k}(W twisted by the opposite modular field) at weight w+n.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    n = structure.nvars
    phi = structure.modular_vector_field(mu)
    twisted = twist(module, structure, -phi)
    try:
        shift, note = graded_weight_shift(structure, module), ""
    except GradedModeError as exc:
        shift, note = None, f"Betti comparison skipped: {exc}"

    slices = _slices("cochain", n, max_weight)
    cache: dict = {}
    checked = 0
    failures = []
    for degree, weight in slices:
        if shift is not None:
            cochains = assemble_slice(structure, module, "cochain", degree, weight)
            _ranked(cache, module, cochains)
            delta = zip(cochains.domain_basis, cochains.columns)
            del cochains  # its columns live on only in delta
            chains = assemble_slice(structure, twisted, "chain", n - degree, weight + n)
            boundary = dict(zip(chains.domain_basis, chains.columns)).__getitem__
        else:  # one basis vector at a time
            delta = ((e, basis_image(structure, module, "cochain", degree, e))
                     for e in slice_basis(module, "cochain", degree, weight))
            boundary = partial(basis_image, structure, twisted, "chain", n - degree)
        for entry, image in delta:
            checked += 1
            target, scale = blacktriangle_basis(mu, n, entry)
            rhs = {}
            for key, coeff in image.items():
                relabelled, sign = blacktriangle_basis(mu, n, key)
                rhs[relabelled] = sign * coeff
            if rhs != {key: scale * c for key, c in boundary(target).items()}:
                element = element_from_basis(module, "cochain", degree, entry)
                failures.append(_failure(
                    degree, element, *_diagram_check(structure, module, twisted, mu, element)
                ))
        if shift is not None:
            del delta, boundary  # rank with one slice in memory
            _ranked(cache, twisted, chains)
            del chains

    pairs = []
    for degree, weight in (slices if shift is not None else ()):
        cochain_dim = betti(structure, module, "cochain", degree, weight, _cache=cache)
        chain_dim = betti(structure, twisted, "chain", n - degree, weight + n, _cache=cache)
        pairs.append({
            "degree": degree,
            "weight": weight,
            "cohomology_dim": cochain_dim,
            "homology_degree": n - degree,
            "homology_weight": weight + n,
            "homology_dim": chain_dim,
            "equal": cochain_dim == chain_dim,
        })

    rng = random.Random(seed)
    for _ in range(trials):
        degree = rng.randint(0, n)
        element = random_cochain_element(rng, module, degree)
        lhs, rhs = _diagram_check(structure, module, twisted, mu, element)
        if lhs != rhs:
            failures.append(_failure(degree, element, lhs, rhs))
    return DualityReport(
        nvars=n,
        rank=module.rank,
        modular_field=tuple(phi.evaluate(x_i) for x_i in structure.coordinates),
        max_weight=max_weight,
        trials=trials,
        seed=seed,
        spec_digest=spec_digest(
            structure.bivector, module, mu,
            {"max_weight": max_weight, "trials": trials, "seed": seed},
        ),
        diagram_total=checked,
        diagram_failures=failures,
        weight_shift=shift,
        graded_note=note,
        betti_pairs=pairs,
    )
