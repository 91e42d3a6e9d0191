"""Exact ranks, Betti numbers per weight, and the duality verifier.

Each slice is ranked straight from its sparse columns (``matrix_rank``
takes sparse rows, and a matrix has the rank of its transpose), so no dense
matrix is built. Elimination is fraction-free over Python ints: no entry is
ever rounded. A wrong rank would falsify the duality theorems spuriously,
which is why no floating-point or modular-arithmetic shortcut is taken.

The rows are split into blocks that share no column, and each block is
eliminated on a live column index: for every column, the set of rows with a
nonzero there, updated as reductions fill in and cancel entries. The pivot
row, one with the fewest nonzeros, comes off a heap of (length, row); its
pivot column, the one found in the fewest other rows, is read off the
index; and only the rows the index lists for that column are reduced. So no
elimination step scans the remaining rows of its block.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations

from . import __version__
from .calculus import ModuleCochainElement, MultiVector
from .complexes import (
    Grading,
    _blacktriangle_keys,
    _kernel,
    _slice_keys,
    _unpack,
    assemble_slice,
    blacktriangle,
    chain_differential,
    cochain_differential,
    element_from_basis,
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
    """Rank of one block, a list of primitive integer rows, by sparse
    fraction-free elimination with Markowitz-style pivoting on a live column
    index. The list is consumed: a row id is its index, the rows are reduced
    in place, and an entry becomes None once its row is a pivot or zero."""
    if len(rows) == 1:
        return 1
    where: dict = {}  # column -> ids of the live rows with a nonzero there
    for i, row in enumerate(rows):
        for j in row:
            if j in where:
                where[j].add(i)
            else:
                where[j] = {i}
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    rank = 0
    while heap:
        length, p = heappop(heap)
        pivot = rows[p]
        if pivot is None or len(pivot) != length:
            continue  # stale: the row was reduced, or is gone, since this push
        rows[p] = None
        for j in pivot:
            where[j].discard(p)
        col = min(pivot, key=lambda j: len(where[j]))
        lead = pivot[col]
        rest = [(j, c) for j, c in pivot.items() if j != col]
        rank += 1
        for i in where.pop(col):
            row = rows[i]
            entry = row.pop(col)
            if lead != 1:
                for j in row:
                    row[j] *= lead
            for j, c in rest:
                c = row.get(j, 0) - entry * c
                if c:
                    if j not in row:
                        where[j].add(i)  # fill-in
                    row[j] = c
                else:  # cancellation; j was in row, as entry * c is nonzero
                    del row[j]
                    where[j].discard(i)
            if row:
                rows[i] = row = _primitive(row)
                heappush(heap, (len(row), i))
            else:
                rows[i] = None
    return rank


def matrix_rank(matrix) -> int:
    """Exact rank of a rational matrix given as an iterable of sparse rows.

    Each row maps column keys, any hashable labels, to entries: ints (bools
    included) or ``Fraction``s. Anything else, a float or ``None`` say,
    raises ``TypeError``, zero or not. The caller's mappings are not
    changed. A matrix has the rank of its transpose, so the columns of a
    ``ComplexSlice``, keyed by packed int basis keys, are passed as its
    rows. The keys are numbered as they are read, so union-find and
    elimination hash small ints. Each nonzero row becomes a sparse
    primitive integer row, scaled by the lcm of its denominators. Rows that
    share no column, directly or through other rows, cannot affect each
    other's pivots, so the rows are split into such blocks and the block
    ranks are added; a block of one row has rank 1.

    Within a block, a column index maps each column to the set of live rows
    with a nonzero there. A heap of (number of nonzeros, row id), pushed
    again whenever a row is reduced and skipped when an entry no longer
    matches its row, gives the pivot row: a shortest row, the lowest id
    among equals. Its column found in the fewest other live rows, counted
    off the index, is the pivot column (Markowitz-style, to limit fill-in).
    Only the rows the index lists for that column are reduced: each becomes
    lead*row - entry*pivot_row, divided by its content. A new entry adds
    the row to its column's set, and a cancelled one removes it.
    """
    ids: dict = {}
    sparse = []
    for row in matrix:
        entries = {}
        fractional = False
        for key, c in row.items():
            if type(c) is not int:
                c = _int_or_fraction(c)  # refuses anything inexact, zero or not
                fractional = fractional or type(c) is not int
            if c:
                entries[ids.setdefault(key, len(ids))] = c
        if fractional:
            scale = math.lcm(*(c.denominator for c in entries.values()))
            entries = {j: c.numerator * (scale // c.denominator) for j, c in entries.items()}
        if entries:
            sparse.append(_primitive(entries))
    blocks = _blocks(sparse, len(ids))
    del sparse  # so each block's rows are freed as it is eliminated
    return sum(map(_block_rank, blocks))


def _ranked(grading: Grading, piece) -> None:
    """Keep (domain dimension, matrix rank) of a slice of ``grading``'s complex on it."""
    grading._ranks[piece.degree, piece.weight] = len(piece.domain_basis), matrix_rank(piece.columns)


def _slice_rank(grading: Grading, degree: int, weight: int) -> tuple:
    """(domain dimension, matrix rank) of one slice, assembled once per grading."""
    if (degree, weight) not in grading._ranks:
        _ranked(grading, assemble_slice(grading, degree, weight))
    return grading._ranks[degree, weight]


def betti(grading: Grading, degree: int, weight: int) -> int:
    """dim ker(outgoing differential) - rank(incoming differential).

    Incoming means the differential landing in slice (degree, weight): it
    leaves (degree - step, weight - shift). Each slice is ranked once per grading.
    """
    dimension, outgoing_rank = _slice_rank(grading, degree, weight)
    _, incoming_rank = _slice_rank(grading, degree - grading.step, weight - grading.shift)
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

    Only the nonempty slices are listed (see ``_slices``). One ``Grading``
    gates the run and keeps every slice rank. The metadata records the
    weight cap, so absence of (co)homology is only ever claimed within it.
    """
    if kind not in ("homology", "cohomology"):
        raise ValueError(f"unknown kind {kind!r}")
    grading = Grading(structure, module, "cochain" if kind == "cohomology" else "chain")
    entries = {(degree, weight): betti(grading, degree, weight)
               for degree, weight in _slices(grading.kind, structure.nvars, max_weight)}
    metadata = {
        "structure": structure_digest(structure.bivector, module),
        "weight_shift": grading.shift,
        "max_weight": max_weight,
        "rank": module.rank,
        "nvars": structure.nvars,
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
    refusal: GradedModeError | None  # the graded-mode gate's, outside graded mode
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

    def graded_note(self, names=None) -> str:
        """Why the Betti pass was skipped, "" in graded mode; coordinates are
        written in ``names`` (x1..xn when None)."""
        return "" if self.refusal is None else (
            f"Betti comparison skipped: {self.refusal.text(names)}")

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
                "note": self.graded_note(names),
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
    where T is ``blacktriangle``. T relabels and scales basis vectors, on
    packed keys key ^ FLIP times a sign read off the index mask, so this
    compares columns keyed by packed ints: in graded mode (the ``Grading``
    gates of W's cochains and the twisted chains pass) those of the cochain
    slice (k, w) and the twisted chain slice (n-k, w+n), whose ranks the
    gates keep; otherwise those of the packed kernel, one basis vector at a
    time, and the report keeps the gate's refusal for its note. Failing basis
    vectors and the ``trials`` seeded random elements go through the
    object-level differentials, which give the witnesses. Betti-level pass
    (graded mode only), over the same (k, w): dim HP^k(W) at weight w must
    equal dim HP_{n-k}(W twisted by the opposite modular field) at weight w+n.
    """
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    n = structure.nvars
    phi = structure.modular_vector_field(mu)
    twisted = twist(module, structure, -phi)
    try:
        cochain_grading = Grading(structure, module, "cochain")
        chain_grading, refusal = Grading(structure, twisted, "chain"), None
    except GradedModeError as exc:
        chain_grading, refusal = None, exc

    triangle = _blacktriangle_keys(mu, n)
    slices = _slices("cochain", n, max_weight)
    monomials: dict = {}  # the packed monomial keys of the non-graded pass
    checked = 0
    failures = []
    for degree, weight in slices:
        if chain_grading is not None:
            cochains = assemble_slice(cochain_grading, degree, weight)
            _ranked(cochain_grading, cochains)
            delta = zip(cochains.domain_basis, cochains.columns)
            del cochains  # its columns live on only in delta
            chains = assemble_slice(chain_grading, n - degree, weight + n)
            boundary = dict(zip(chains.domain_basis, chains.columns)).__getitem__
        else:  # one basis vector at a time
            coeff_degree = weight + degree
            column = _kernel(structure, module, "cochain", degree, coeff_degree)
            delta = ((key, column(key))
                     for key in _slice_keys(module, "cochain", degree, weight, monomials))
            boundary = _kernel(structure, twisted, "chain", n - degree, coeff_degree)
        for key, image in delta:
            checked += 1
            [(target, scale)] = triangle({key: 1}).items()
            if triangle(image) != {k: scale * c for k, c in boundary(target).items()}:
                element = element_from_basis(module, "cochain", degree, _unpack(n, key))
                failures.append(_failure(
                    degree, element, *_diagram_check(structure, module, twisted, mu, element)
                ))
        if chain_grading is not None:
            del delta, boundary  # rank with one slice in memory
            _ranked(chain_grading, chains)
            del chains

    pairs = []
    for degree, weight in (slices if chain_grading is not None else ()):
        cochain_dim = betti(cochain_grading, degree, weight)
        chain_dim = betti(chain_grading, n - degree, weight + n)
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
        weight_shift=None if chain_grading is None else cochain_grading.shift,
        refusal=refusal,
        betti_pairs=pairs,
    )
