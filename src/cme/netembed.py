"""Interaction-network embeddings: adjacency -> cosine -> truncated SVD.

The chain: a sparse source x target count matrix, row-stochastic
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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import InteractionRecord

logger = logging.getLogger(__name__)


@dataclass
class InteractionMatrix:
    """Sparse count matrix; rows are source users, columns target users."""

    matrix: sp.csr_matrix
    row_ids: list[str]
    col_ids: list[str]
    skipped: int = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


@dataclass
class CosineMatrix:
    """Dense symmetric user-user similarity, entries in [0, 1] for count input."""

    values: np.ndarray
    row_ids: list[str]
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
    mode: str
    zero_rows: list[int] = field(default_factory=list)

    @property
    def k(self) -> int:
        return int(self.matrix.shape[1])


def build_adjacency(
    interactions: Sequence[InteractionRecord],
    rows: Sequence[str],
    cols: Sequence[str],
) -> InteractionMatrix:
    """Sum mention and retweet counts into a sparse source x target matrix.

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

    matrix = sp.coo_matrix(
        (data, (ii, jj)), shape=(len(rows), len(cols)), dtype=np.float64
    ).tocsr()
    matrix.sum_duplicates()
    return InteractionMatrix(matrix=matrix, row_ids=rows, col_ids=cols, skipped=skipped)


def row_normalize(im: InteractionMatrix) -> InteractionMatrix:
    """Scale every nonzero row to sum to 1; all-zero rows stay all-zero."""
    mat = im.matrix.tocsr(copy=True)
    sums = np.asarray(mat.sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    mat = sp.diags(scale) @ mat
    return InteractionMatrix(
        matrix=mat.tocsr(), row_ids=im.row_ids, col_ids=im.col_ids, skipped=im.skipped
    )


def cosine_similarity_matrix(im: InteractionMatrix) -> CosineMatrix:
    """Pairwise cosine between rows of the interaction matrix.

    Rows of zero norm produce 0 everywhere, including their own diagonal,
    so 0/0 never occurs. For nonnegative input the entries land in [0, 1]
    and the diagonal of every nonzero row is exactly 1.
    """
    mat = im.matrix.tocsr()
    norms = np.sqrt(np.asarray(mat.multiply(mat).sum(axis=1)).ravel())
    nonzero = norms > 0
    zero_rows = [int(i) for i in np.nonzero(~nonzero)[0]]

    gram = np.asarray((mat @ mat.T).todense(), dtype=np.float64)
    denom = np.outer(norms, norms)
    values = np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0)

    idx = np.nonzero(nonzero)[0]
    values[idx, idx] = 1.0
    values = (values + values.T) / 2.0
    if im.matrix.nnz == 0 or im.matrix.data.min() >= 0:
        np.clip(values, 0.0, 1.0, out=values)
    else:
        np.clip(values, -1.0, 1.0, out=values)
    return CosineMatrix(values=values, row_ids=im.row_ids, zero_rows=zero_rows)


def _canonical_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    u = u.copy()
    for j in range(u.shape[1]):
        lead = np.argmax(np.abs(u[:, j]))
        if u[lead, j] < 0:
            u[:, j] = -u[:, j]
    return u


def truncated_svd(cosine, k: int) -> SVDFactors:
    """Top-k singular triples of a symmetric PSD matrix.

    Accepts a CosineMatrix or a plain symmetric ndarray. Because the input
    is symmetric PSD, left and right factors coincide (up to sign) and the
    singular values are the eigenvalues; tiny negative eigenvalues from
    rounding are clamped to zero.

    One full LAPACK symmetric eigendecomposition (numpy.linalg.eigh) is
    taken and its top k kept. The subset-only
    scipy.linalg.eigh(subset_by_index=...) was measured to raise the
    network benchmark's peak RSS by 3.4 MB (full numpy eigh: 0.1 MB), and
    ARPACK (scipy.sparse.linalg.svds, k=300) was off by 0.46 in sigma^2 on
    an 871-row cosine matrix, so neither is used.
    """
    mat = cosine.values if isinstance(cosine, CosineMatrix) else np.asarray(cosine, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    m = mat.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    if not np.allclose(mat, mat.T, atol=1e-8 * max(1.0, float(np.abs(mat).max()))):
        raise ValueError("matrix is not symmetric")

    evals, evecs = np.linalg.eigh((mat + mat.T) / 2.0)
    # eigh returns ascending eigenvalues; take the top k, largest first
    sigma = np.maximum(evals[::-1][:k], 0.0)
    u = _canonical_signs(evecs[:, ::-1][:, :k])
    return SVDFactors(u=u, sigma=sigma)


def network_embedding(
    factors: SVDFactors,
    mode: str = "paper",
    row_ids: Optional[Sequence[str]] = None,
    zero_rows: Optional[Sequence[int]] = None,
    sigma_tolerance: float = 1e-12,
) -> NetworkEmbedding:
    """Fold the factors into per-user rows.

    mode "paper" divides each component by its singular value (requires
    every retained value above sigma_tolerance); mode "conventional"
    multiplies instead.
    """
    if mode not in ("paper", "conventional"):
        raise ValueError(f"unknown mode {mode!r} (expected 'paper' or 'conventional')")
    sigma = np.asarray(factors.sigma, dtype=np.float64)
    if mode == "paper":
        bad = np.nonzero(sigma <= sigma_tolerance)[0]
        if bad.size:
            raise ValueError(
                f"singular value at index {int(bad[0])} is {sigma[int(bad[0])]:.3g} "
                f"<= tolerance {sigma_tolerance:.3g}; cannot divide (drop it or use "
                f"mode='conventional')"
            )
        matrix = factors.u / sigma
    else:
        matrix = factors.u * sigma
    ids = list(row_ids) if row_ids is not None else [str(i) for i in range(matrix.shape[0])]
    return NetworkEmbedding(
        matrix=matrix, row_ids=ids, mode=mode, zero_rows=list(zero_rows or [])
    )
