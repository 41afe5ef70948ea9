"""Deterministic hierarchical random-stream derivation.

All randomness in the package flows from a single root seed.  Every
consumer derives its own independent substream through a fixed integer
path (root -> run -> step -> trial), so results never depend on
execution order or on how many runs' trials share one simulator call
when the runs advance in lockstep.  A stream is a function of its
address, the root seed and its path: ``child(rng, *p)`` extends
``rng``'s path by ``p``, and ``children(rng, k)`` are ``child(rng, i)``
for ``i < k``.  Path layout used by the experiment harness:

    (run, step, LEARN)      one step's learning stream.  Attempt a (0
                            first, 1 the retry) draws its exploration
                            policies from child 3a and its trials from
                            the children of 3a + 1; for with_encoding
                            the projection search batch's from
                            (3a + 2, 0) and the children of (3a + 2, 1).
    (run, step, EVAL)       evaluation of the stepped policy, one child
                            per trial
    (PRETRAIN,)             dynamics pretraining: children(., 3) for the
                            rollout policies, rollouts and state picks
    (ENCODE, 0)             encode-search problem data
    (VARIANCE, LEARN|EVAL)  variance check: one stream of exploration
                            draws and one of trial noise, each read as a
                            fixed-width standard-normal block in which
                            replication r takes rows [r*n, (r+1)*n)

Paths are untagged integer tuples, so addresses can coincide, but no
two streams drawn from share one.  In one dart run, run 3's step-1
streams (3, 1, LEARN) and (3, 1, EVAL), parents never drawn from, have
the addresses of pretraining rollouts 0 and 1, (PRETRAIN, 1, 0) and
(PRETRAIN, 1, 1).  Leading every path with a domain tag would rule such
overlaps out by construction.
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


def child(rng: np.random.Generator, *path: int) -> np.random.Generator:
    """Return the generator at ``rng``'s path plus ``path``, a function of
    that address alone, whatever ``rng`` drew or derived before."""
    seq = rng.bit_generator.seed_seq
    return np.random.default_rng(
        np.random.SeedSequence(
            seq.entropy, spawn_key=seq.spawn_key + path, pool_size=seq.pool_size
        )
    )


def children(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Return ``child(rng, i)`` for each ``i < count``."""
    return [child(rng, i) for i in range(count)]


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
