"""Interaction-network embeddings: adjacency -> cosine -> truncated SVD.

The chain: a coordinate-form source x target count matrix (numpy arrays
of row, column and value for each nonzero cell), row-stochastic
normalization, a square pairwise cosine-similarity matrix between source
users, then a rank-k factorization whose row space is the network
embedding.

Two scaling modes exist for the final step because the factorization can
be folded back with either the inverse singular values (mode "paper",
which whitens the components) or the singular values themselves (mode
"conventional", which weights by importance). Both ship; "paper" is the
default.

The factorization is one LAPACK symmetric eigendecomposition
(numpy.linalg.eigh) of the dense cosine matrix, truncated to the top k
eigenpairs; for a symmetric PSD matrix these are its singular triples.
Column signs are canonicalized so output is deterministic.

Where each rule of the Network view's shape is decided:

- k: pipeline.build_network_view takes min(k or dimension, source rows)
  components; truncated_svd only checks 1 <= k <= rows.
- width: the view is as wide as the kept components (0 without a graph);
  compose.build_cme zero-extends it where it is added to wider views.
- the sigma floor: sigma_floor; "paper" mode keeps, and divides by, only
  the singular values above it.
- symmetry: cosine_similarity_matrix's output is exactly symmetric by
  construction (the Gram product is symmetric, and dividing by the outer
  product of the norms, writing the diagonal and clipping keep it so), so
  truncated_svd checks only a plain array and factors its input as given.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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
    """Dense symmetric user-user similarity, entries in [0, 1] for count input."""

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


@dataclass
class NetworkEmbedding:
    matrix: np.ndarray
    row_ids: list[str]
    skipped: int = 0  # interactions build_adjacency left out

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
    dense anyway, and exactly symmetric.
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
    """Flip each column so its largest-magnitude entry is positive."""
    lead = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    return np.where(lead < 0, -u, u)


def truncated_svd(cosine, k: int) -> SVDFactors:
    """Top-k singular triples of a symmetric PSD matrix.

    Accepts a CosineMatrix or a plain symmetric ndarray. Because the input
    is symmetric PSD, left and right factors coincide (up to sign) and the
    singular values are the eigenvalues; tiny negative eigenvalues from
    rounding are clamped to zero. The caller picks k in [1, rows]. A plain
    array is checked to be symmetric within rounding; a CosineMatrix is
    exactly symmetric by construction. The input is factored as given
    (eigh reads its lower triangle).

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
    return NetworkEmbedding(matrix=matrix, row_ids=ids)
