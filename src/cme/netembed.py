"""Interaction-network embeddings: adjacency -> cosine -> truncated SVD.

The chain: a coordinate-form source x target count matrix (numpy arrays
of row, column and value for each nonzero cell), a square pairwise
cosine-similarity matrix between source users, then a rank-k
factorization whose row space is the network embedding. A cosine does not
change when a row is scaled, so the run path takes the counts as they are;
the reference chain row-normalizes them first (row_normalize), to the
same cosine up to rounding.

Two scaling modes exist for the final step because the factorization can
be folded back with either the inverse singular values (mode "paper",
which whitens the components) or the singular values themselves (mode
"conventional", which weights by importance). Both ship; "paper" is the
default.

The run path (factor_graph) never forms the m x m cosine. The cosine is
B.B^T, where B is the adjacency with L2-normalized rows, so it is
block-diagonal over the connected components of the co-target graph
(sources joined through the targets they share). factor_graph finds the
components from the coordinate arrays and factors each on its own:

- a singleton (one source) is its indicator column with sigma exactly 1.0,
  cosine_similarity_matrix's diagonal rule, and is not factored;
- any other component takes one dense eigendecomposition (truncated_svd)
  of the Gram on its smaller side: B_c.B_c^T when it has no more sources
  than targets, otherwise B_c^T.B_c, whose eigenvectors v give the
  source-side columns B_c.v normalized (the eigenvalues are the same).

The columns of every component are merged, largest sigma first, and the
top k kept. k is capped at the rank: the count of sigma above sigma_floor,
in both modes, so no column is kept that "paper" mode could not divide by
or that carries nothing in "conventional" mode.

Ties: sigma values whose neighbours in the sorted list lie within
sigma_floor (1e-10 * max(1, sigma_max)) form one group; singletons and
repeated identical components give such groups. An eigensolver may
return any basis of a group's eigenspace, and rounding or the BLAS thread
count picks one, so each group gets the basis its eigenspace alone fixes:
its projector's columns orthonormalized in source order (Gram-Schmidt,
skipping a column already in the span of those before it). Where k cuts
inside a group, its first columns by the same rule are kept; each
component first gives only its top k + 1 pairs, and one whose last pair
falls in that group gives all of them, so the group is whole. Every other
column has its sign canonicalized. So the Network view is a function of
the graph, to rounding.

cosine_similarity_matrix and truncated_svd over the whole cosine are the
reference chain: the acceptance oracles and the tests check the run path
against them, and the run path sends each component's Gram through
truncated_svd, one full LAPACK symmetric eigendecomposition
(numpy.linalg.eigh) truncated to the top eigenpairs; for a symmetric PSD
matrix these are its singular triples.

Where each rule of the Network view's shape is decided:

- k: pipeline.build_network_view asks for min(k or dimension, source rows)
  components; factor_graph keeps at most that many, and no more than the
  rank; truncated_svd only checks 1 <= k <= rows.
- width: the view is as wide as the kept components (0 x 0 without a
  source row); compose.build_cme zero-extends it where it is added to
  wider views.
- the sigma floor: sigma_floor; factor_graph keeps only the singular
  values above it, and network_embedding's "paper" mode refuses the others.
- symmetry: cosine_similarity_matrix's output is exactly symmetric by
  construction (the Gram product is symmetric, and dividing by the outer
  product of the norms, writing the diagonal and clipping keep it so), as
  is a component's Gram (x @ x.T or x.T @ x); both go to truncated_svd as
  a CosineMatrix, which it factors as given without the symmetry check it
  runs on a plain array.
- the record: pipeline.build_network_view assembles netembed/meta.json's
  fields, once, from what build_adjacency (skipped, on every corpus),
  factor_graph (the GraphSummary) and network_embedding (the kept sigma)
  return.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .corpus import InteractionRecord

logger = logging.getLogger(__name__)

# how network_embedding folds the factors back: divide by sigma, or multiply
MODES = ("paper", "conventional")
DEFAULT_MODE = "paper"


def sigma_floor(sigma: np.ndarray) -> float:
    """The bound "paper" mode's singular values must exceed: 1e-10 * max(1, sigma_max)."""
    return 1e-10 * max(1.0, float(np.max(sigma, initial=0.0)))


@dataclass(frozen=True)
class CoordMatrix:
    """Coordinate-form matrix: one (row, col, value) per stored cell.

    Cells are unique and in row-major order.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        dense[self.rows, self.cols] = self.data
        return dense


@dataclass
class InteractionMatrix:
    """Coordinate-form count matrix; rows are source users, columns target users, in the caller's order."""

    matrix: CoordMatrix
    skipped: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass
class CosineMatrix:
    """Dense, exactly symmetric PSD matrix: the user-user cosine, entries in [0, 1] for count input.

    factor_graph also wraps each component's Gram in one, since x @ x.T and
    x.T @ x are exactly symmetric too.
    """

    values: np.ndarray
    zero_rows: list[int] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass
class SVDFactors:
    """Top-k orthonormal columns and descending nonnegative singular values."""

    u: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class GraphSummary:
    """What factor_graph saw: the co-target graph's components and the kept columns' ties."""

    components: int = 0  # connected components of the source rows
    largest: int = 0  # source rows in the largest component
    tied_columns: int = 0  # kept columns whose basis the tie rule fixed


@dataclass
class NetworkEmbedding:
    matrix: np.ndarray
    row_ids: list[str]
    sigma: np.ndarray  # the folded singular values

    @property
    def k(self) -> int:
        return int(self.matrix.shape[1])


def _bincount(index: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    # float64 even for empty input, where np.bincount returns int64
    return np.bincount(index, weights=weights, minlength=length).astype(np.float64, copy=False)


def build_adjacency(
    interactions: Sequence[InteractionRecord],
    rows: Sequence[str],
    cols: Sequence[str],
) -> InteractionMatrix:
    """Sum mention and retweet counts into a source x target count matrix.

    Interactions whose source is not in rows or target not in cols are
    skipped and counted (target lists are usually longer than source
    lists, so some drop-off is expected, but it is never silent).
    """
    rows = list(rows)
    cols = list(cols)
    if len(set(rows)) != len(rows):
        raise ValueError("row index list contains duplicates")
    if len(set(cols)) != len(cols):
        raise ValueError("col index list contains duplicates")
    row_index = {uid: i for i, uid in enumerate(rows)}
    col_index = {uid: j for j, uid in enumerate(cols)}

    data, ii, jj = [], [], []
    skipped = 0
    for rec in interactions:
        i = row_index.get(rec.source)
        j = col_index.get(rec.target)
        if i is None or j is None:
            skipped += 1
            continue
        ii.append(i)
        jj.append(j)
        data.append(float(rec.count))
    if skipped:
        logger.warning("build_adjacency: skipped %d interactions outside the index lists", skipped)

    # one cell per distinct (row, col), summed; np.unique sorts them row-major
    width = len(cols)
    cells, inverse = np.unique(
        np.asarray(ii, dtype=np.int64) * width + np.asarray(jj, dtype=np.int64),
        return_inverse=True,
    )
    matrix = CoordMatrix(
        rows=cells // width,
        cols=cells % width,
        data=_bincount(inverse, np.asarray(data, dtype=np.float64), cells.size),
        shape=(len(rows), width),
    )
    return InteractionMatrix(matrix=matrix, skipped=skipped)


def row_normalize(im: InteractionMatrix) -> InteractionMatrix:
    """Scale every nonzero row to sum to 1; all-zero rows stay all-zero."""
    mat = im.matrix
    sums = _bincount(mat.rows, mat.data, mat.shape[0])
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return replace(im, matrix=replace(mat, data=scale[mat.rows] * mat.data))


def cosine_similarity_matrix(im: InteractionMatrix) -> CosineMatrix:
    """Pairwise cosine between rows of the interaction matrix.

    Rows of zero norm produce 0 everywhere, including their own diagonal,
    so 0/0 never occurs. For nonnegative input the entries land in [0, 1]
    and the diagonal of every nonzero row is exactly 1. The Gram matrix is
    one dense product of the rows, divided in place; the result is m x m
    dense anyway, and exactly symmetric. This is the reference chain's
    cosine; the run path (factor_graph) never forms it.
    """
    mat = im.matrix
    norms = np.sqrt(_bincount(mat.rows, mat.data * mat.data, mat.shape[0]))
    nonzero = norms > 0
    zero_rows = np.flatnonzero(~nonzero).tolist()

    dense = mat.toarray()
    values = dense @ dense.T
    del dense
    # where denom is 0 a row is all zero, so its Gram entries already are 0
    denom = np.outer(norms, norms)
    np.divide(values, denom, out=values, where=denom > 0)
    del denom

    values[nonzero, nonzero] = 1.0
    nonnegative = mat.nnz == 0 or mat.data.min() >= 0
    np.clip(values, 0.0 if nonnegative else -1.0, 1.0, out=values)
    return CosineMatrix(values=values, zero_rows=zero_rows)


def _canonical_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column so its leading entry is positive.

    The leading entry is the first, in row order, within 1e-8 of the
    column's largest magnitude, so entries of equal magnitude (a symmetric
    component's +a and -a) are not told apart by rounding.
    """
    magnitude = np.abs(u)
    first = np.argmax(magnitude >= magnitude.max(axis=0, initial=0.0) - 1e-8, axis=0)
    lead = u[first, np.arange(u.shape[1])]
    return np.where(lead < 0, -u, u)


def truncated_svd(cosine, k: int) -> SVDFactors:
    """Top-k singular triples of a symmetric PSD matrix.

    Accepts a CosineMatrix or a plain symmetric ndarray. Because the input
    is symmetric PSD, left and right factors coincide (up to sign) and the
    singular values are the eigenvalues; tiny negative eigenvalues from
    rounding are clamped to zero. The caller picks k in [1, rows]. A plain
    array is checked to be symmetric within rounding, which costs about
    three temporaries of its size; a CosineMatrix (the cosine, or a Gram
    product from factor_graph) is exactly symmetric by construction and
    skips the check. The input is factored as given (eigh reads its lower
    triangle).

    One full LAPACK symmetric eigendecomposition (numpy.linalg.eigh) is
    taken and its top k kept. scipy's subset-only eigh raised the network
    benchmark's peak RSS by 3.4 MB (full numpy eigh: 0.1 MB), and ARPACK
    svds (k=300) was off by 0.46 in sigma^2 on an 871-row cosine matrix.
    """
    exact = isinstance(cosine, CosineMatrix)
    mat = cosine.values if exact else np.asarray(cosine, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    m = mat.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    if not exact and not np.allclose(mat, mat.T, atol=1e-8 * max(1.0, float(np.abs(mat).max()))):
        raise ValueError("matrix is not symmetric")

    evals, evecs = np.linalg.eigh(mat)
    # eigh returns ascending eigenvalues; take the top k, largest first
    sigma = np.maximum(evals[::-1][:k], 0.0)
    u = _canonical_signs(evecs[:, ::-1][:, :k])
    return SVDFactors(u=u, sigma=sigma)


def _source_components(mat: CoordMatrix) -> np.ndarray:
    """Each source row's component: the smallest source row it reaches through shared targets.

    Sources and targets are the nodes of one graph (targets numbered after
    the sources) and each nonzero cell an edge. Each round hooks every root
    to the smaller root across each edge, then points every node at its
    root, until no edge joins two roots. A root stays the smallest node of
    its tree, so a component's label is its first source row, and a row
    with no nonzero cell is a component of its own.
    """
    m = mat.shape[0]
    live = mat.data != 0
    ends = (mat.rows[live], m + mat.cols[live])
    root = np.arange(m + mat.shape[1])
    while True:
        left, right = root[ends[0]], root[ends[1]]
        if np.array_equal(left, right):
            return root[:m]
        low = np.minimum(left, right)
        np.minimum.at(root, left, low)
        np.minimum.at(root, right, low)
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


class _Component(NamedTuple):
    """One component's candidate columns: sigma, u on its rows, its rows and its cells."""

    sigma: np.ndarray
    u: np.ndarray
    rows: np.ndarray
    cells: np.ndarray
    complete: bool  # every nonzero sigma is here


def _factor_component(mat: CoordMatrix, unit: np.ndarray, rows: np.ndarray, cells: np.ndarray,
                      k: Optional[int]) -> _Component:
    """Top-k eigenpairs (all with k None) of a component's cosine, from the Gram on its smaller side.

    unit holds every cell's L2-normalized value. With more rows than
    targets, the eigenvectors v of B^T.B give the row-side columns B.v,
    normalized; the nonzero eigenvalues are the same.
    """
    # return_inverse also keeps np.unique from importing numpy.ma (about 10 ms) on its first call
    targets, local = np.unique(mat.cols[cells], return_inverse=True)
    block = np.zeros((rows.size, targets.size))
    block[np.searchsorted(rows, mat.rows[cells]), local] = unit[cells]
    side = min(block.shape)
    count = side if k is None else min(side, k)
    if block.shape[0] <= block.shape[1]:
        factors = truncated_svd(CosineMatrix(values=block @ block.T), count)
        u = factors.u
    else:
        factors = truncated_svd(CosineMatrix(values=block.T @ block), count)
        u = block @ factors.u
        norms = np.linalg.norm(u, axis=0)
        u = np.divide(u, norms, out=np.zeros_like(u), where=norms > 0)
    return _Component(factors.sigma, u, rows, cells, count == side)


def _echelon_basis(basis: np.ndarray, count: int) -> np.ndarray:
    """The first count vectors of Gram-Schmidt over basis's rows, in row order.

    basis has orthonormal columns spanning an eigenspace, one row per
    source. Row i holds the coordinates of P.e_i, the projector's column i,
    so basis @ result is P's columns orthonormalized in row order, whatever
    basis of the space basis was. A row within 1e-6 of the span of those
    before it adds nothing; some row always reaches further, since each
    direction of the space has squared length 1 summed over the rows.
    """
    q = np.zeros((basis.shape[1], count))
    found = 0
    for row in basis:
        for _ in range(2):  # twice is enough for orthogonality to rounding
            row = row - q[:, :found] @ (q[:, :found].T @ row)
        norm = np.linalg.norm(row)
        if norm > 1e-6:
            q[:, found] = row / norm
            found += 1
            if found == count:
                break
    return basis @ q


def factor_graph(im: InteractionMatrix, k: int) -> tuple[SVDFactors, GraphSummary]:
    """Top singular triples of the interaction matrix's cosine, one component at a time.

    The same triples as truncated_svd(cosine_similarity_matrix(im), k) to
    rounding (see the module notes for the rules), without forming the
    cosine, and with at most k columns, none at or below sigma_floor.
    Tied columns get the basis their eigenspace fixes, the others
    canonical signs. The caller picks k in [1, rows].
    """
    mat = im.matrix
    m = mat.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    norms = np.sqrt(_bincount(mat.rows, mat.data * mat.data, m))
    row_norms = norms[mat.rows]
    unit = np.divide(mat.data, row_norms, out=np.zeros_like(mat.data), where=row_norms > 0)
    labels = _source_components(mat)
    firsts, sizes = np.unique(labels, return_counts=True)

    # every component's top k + 1 columns, enough to see whether its k-th ties with the rest
    components: list[_Component] = []
    cell_labels = labels[mat.rows]
    cells = np.argsort(cell_labels, kind="stable")  # row-major within each component
    bounds = np.searchsorted(cell_labels[cells], np.append(firsts, m))
    for first, size, lo, hi in zip(firsts, sizes, bounds[:-1], bounds[1:]):
        if size == 1:
            sigma = np.array([1.0 if norms[first] > 0 else 0.0])
            components.append(_Component(sigma, np.ones((1, 1)), np.array([first]), cells[lo:hi], True))
        else:
            components.append(_factor_component(mat, unit, np.flatnonzero(labels == first), cells[lo:hi], k + 1))

    while True:
        sigma = np.concatenate([c.sigma for c in components])
        owner = np.repeat(np.arange(len(components)), [c.sigma.size for c in components])
        column = np.concatenate([np.arange(c.sigma.size) for c in components])
        order = np.argsort(-sigma, kind="stable")
        sigma, owner, column = sigma[order], owner[order], column[order]
        floor = sigma_floor(sigma)
        rank = int(np.count_nonzero(sigma > floor))
        keep = min(k, rank)
        # tie groups: runs of the sorted sigma above the floor whose steps are within it
        edges = [0, *(np.flatnonzero(np.diff(sigma[:rank]) < -floor) + 1), rank]
        # a component whose last column is in the group k cuts may hold more of that group
        cut = next((lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi >= keep) if keep else (0, 0)
        short = {
            int(o) for o, c in zip(owner[cut[0] : cut[1]], column[cut[0] : cut[1]])
            if not components[o].complete and c == components[o].sigma.size - 1
        }
        if not short:
            break
        for o in short:
            components[o] = _factor_component(mat, unit, components[o].rows, components[o].cells, None)

    u = np.zeros((m, keep))
    tied = np.zeros(keep, dtype=bool)
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo >= keep:
            break
        members = [(components[o], c) for o, c in zip(owner[lo:hi], column[lo:hi])]
        if hi - lo == 1:
            part, c = members[0]
            u[part.rows, lo] = part.u[:, c]
            continue
        rows = np.sort(np.concatenate([components[o].rows for o in dict.fromkeys(owner[lo:hi])]))
        basis = np.zeros((rows.size, hi - lo))
        for j, (part, c) in enumerate(members):
            basis[np.searchsorted(rows, part.rows), j] = part.u[:, c]
        count = min(hi, keep) - lo
        u[rows, lo : lo + count] = _echelon_basis(basis, count)
        tied[lo : lo + count] = True
    u[:, ~tied] = _canonical_signs(u[:, ~tied])
    summary = GraphSummary(components=int(firsts.size), largest=int(sizes.max()), tied_columns=int(tied.sum()))
    return SVDFactors(u=u, sigma=sigma[:keep]), summary


def network_embedding(
    factors: SVDFactors,
    mode: str = DEFAULT_MODE,
    row_ids: Optional[Sequence[str]] = None,
) -> NetworkEmbedding:
    """Fold the factors into per-user rows.

    mode "paper" divides each component by its singular value (requires
    every value above sigma_floor, so callers drop the others first); mode
    "conventional" multiplies instead.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (expected one of {MODES})")
    sigma = np.asarray(factors.sigma, dtype=np.float64)
    if mode == "paper":
        floor = sigma_floor(sigma)
        bad = np.nonzero(sigma <= floor)[0]
        if bad.size:
            raise ValueError(
                f"singular value at index {int(bad[0])} is {sigma[int(bad[0])]:.3g} "
                f"<= floor {floor:.3g}; cannot divide (drop it or use mode='conventional')"
            )
        matrix = factors.u / sigma
    else:
        matrix = factors.u * sigma
    ids = list(row_ids) if row_ids is not None else [str(i) for i in range(matrix.shape[0])]
    return NetworkEmbedding(matrix=matrix, row_ids=ids, sigma=sigma)
