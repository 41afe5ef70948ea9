"""Deterministic hierarchical random-stream derivation.

All randomness in the package flows from a single root seed.  Every
consumer derives its own independent substream through a fixed integer
path (root -> run -> step -> trial), so results never depend on
execution order or on how many runs' trials share one simulator call
when the runs advance in lockstep.

``children(rng, k)`` of the stream at path ``p`` are the streams at
``p + (i,)`` for the next k values of i; a later call continues the
count.  Path layout used by the experiment harness:

    (run, step, LEARN)      one step's learning stream.  Each attempt at
                            the step takes children(., 3): the
                            exploration policies, the trials (one child
                            each) and a third child.  For with_encoding
                            the third child's children(., 3) are the
                            projection search batch's policies, its
                            trials and a third, unused since the search
                            lost its seed; the other estimators never use
                            the third child.  A retry takes the next three
                            children of the same stream.
    (run, step, EVAL)       evaluation of the stepped policy, one child
                            per trial
    (PRETRAIN,)             dynamics pretraining: children(., 3) for the
                            rollout policies, rollouts and state picks
    (ENCODE, 0)             encode-search problem data
    (VARIANCE, LEARN|EVAL)  variance check: one stream of exploration
                            draws and one of trial noise, each read as a
                            fixed-width standard-normal block in which
                            replication r takes rows [r*n, (r+1)*n)

Paths are untagged integer tuples, so addresses can coincide.  Within
one dart run, the first pretraining rollout's stream (PRETRAIN, 1, 0)
is run 3's step-1 learning stream (3, 1, LEARN); the rollout only draws
from it and the step only spawns children from it, so no number is used
twice.  Leading every path with a domain tag would rule such overlaps
out by construction.
"""

from __future__ import annotations

import numpy as np

# Domain tags for the derivation path.  Values are arbitrary but frozen:
# changing them changes every downstream draw.
LEARN = 0
EVAL = 1
PRETRAIN = 3
ENCODE = 4
VARIANCE = 5


def substream(root_seed: int, *path: int) -> np.random.Generator:
    """Return the generator at `path` under `root_seed`.

    The same (root_seed, path) pair always yields an identical stream;
    distinct paths yield statistically independent streams.  The seed
    is nonnegative, as ``SeedSequence`` requires.
    """
    ss = np.random.SeedSequence(root_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def children(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Derive `count` independent child generators from `rng`.

    Children are taken from the generator's seed sequence, so the i-th
    child of a given stream is always the same generator regardless of
    scheduling.  Successive calls continue the spawn sequence rather
    than repeating it.
    """
    seq = rng.bit_generator.seed_seq
    return [np.random.default_rng(ss) for ss in seq.spawn(count)]


def normal_rows(streams, count: int, width: int) -> np.ndarray:
    """The ``(count, width)`` standard-normal block of a batch.

    ``streams`` is either one generator per row, row ``i`` drawn from
    ``streams[i]``, or a single ``Generator`` the whole block is drawn
    from.
    """
    if isinstance(streams, np.random.Generator):
        return streams.standard_normal((count, width))
    block = np.empty((count, width))
    for row, rng in zip(block, streams, strict=True):
        rng.standard_normal(out=row)
    return block


def row_products(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``rows @ matrix``, summed term by term in a fixed order.

    BLAS products round a row differently depending on how many rows
    share the call; elementwise products and sums do not, so every
    output row is a function of its input row alone.
    """
    out = np.zeros((rows.shape[0],) + matrix.shape[1:])
    for j in range(matrix.shape[0]):
        out += np.multiply.outer(rows[:, j], matrix[j])
    return out


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive semidefinite matrix.

    The caller guarantees a square, symmetric, positive semidefinite
    matrix: each covariance is built from values the config readers
    check (a positive definite matrix, a nonnegative diagonal or scale).
    Singular (even zero) covariances are fine; a rounding-level negative
    eigenvalue counts as zero.  ``mean + psd_sqrt(cov) @ z``
    with standard-normal ``z`` draws from ``N(mean, cov)``.
    """
    cov = np.asarray(cov, dtype=float)
    # Halving first symmetrizes without overflow, rounding as the sum would.
    eigvals, eigvecs = np.linalg.eigh(cov / 2.0 + cov.T / 2.0)
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return root @ eigvecs.T
