"""Exhaustive small-parameter oracle suite for every kernel backend.

The paper's fused radix-2^k NTT (:class:`~repro.ntt.fusion.FusedNtt`)
is held to the same oracle.

The warp-core idiom: a tiny, obviously-correct big-int reference
implementation verifies the fast implementations *exhaustively* over
rings small enough to enumerate. With N <= 16 and 16-bit primes the
structured sub-lattice below covers every (value-class, position)
combination the butterfly networks distinguish, and the seeded random
sweeps fill in the interior. The oracle shares no code with the
backends — Python integers only — so agreement is evidence, not
tautology.

Two input families per ring:

* the *structured sub-lattice*: every vector of the form
  ``c * e_j + d * e_k`` with ``c, d`` drawn from the residue-range
  corner set (0, 1, 2, q-2, q-1, q//2) and ``e_j`` the standard
  basis — this hits every twiddle index and every lazy-reduction
  boundary one butterfly pair at a time;
* seeded dense random sweeps over the full ring.

All vectors for one ring are stacked as rows of a single (B, n) residue
matrix with ``moduli = (q,) * B``, so each backend is exercised in one
call and the big-int expectations are computed once and shared across
backends.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro import kernels
from repro.ntt.fusion import FusedNtt
from repro.utils.primes import find_ntt_primes

#: Tiny rings: exhaustive-enumeration scale (N <= 16, 16-bit primes).
RING_DEGREES = (4, 8, 16)

BACKENDS = kernels.available_backends()

RANDOM_SWEEP_SEEDS = (0, 1, 2023)
SWEEP_VECTORS = 32


def _corner_values(q: int, n: int) -> tuple[int, ...]:
    """Residue-range corners: identities, extremes, midpoint.

    The largest ring drops 2 and q-2 to keep the pair lattice (which
    grows as n^2 * corners^2) inside a second of oracle time; the
    smaller rings keep the full set.
    """
    corners = {0, 1, q - 1, q // 2}
    if n <= 8:
        corners |= {2, q - 2}
    return tuple(sorted(corners))


# ----------------------------------------------------------------------
# Big-int oracle (Python integers only, no code shared with backends)

def _oracle_psi(q: int, n: int) -> int:
    """A primitive 2n-th root of unity mod q, found by brute force."""
    for g in range(2, q):
        root = pow(g, (q - 1) // (2 * n), q)
        if pow(root, n, q) == q - 1:  # psi^n == -1: primitive, negacyclic
            return root
    raise AssertionError(f"no 2n-th root for q={q}, n={n}")


@lru_cache(maxsize=None)
def _dft_matrices(q: int, n: int):
    """Dense negacyclic DFT / inverse-DFT matrices as Python-int rows.

    Forward: out[k] = sum_j a_j psi^{(2k+1) j}.
    Inverse: out[j] = n^-1 sum_k A_k psi^{-(2k+1) j}.
    """
    psi = _oracle_psi(q, n)
    inv_psi = pow(psi, q - 2, q)
    inv_n = pow(n, q - 2, q)
    fwd = [
        [pow(psi, (2 * k + 1) * j, q) for j in range(n)] for k in range(n)
    ]
    inv = [
        [inv_n * pow(inv_psi, (2 * k + 1) * j, q) % q for k in range(n)]
        for j in range(n)
    ]
    return fwd, inv


def _oracle_apply(matrix, rows: np.ndarray, q: int) -> np.ndarray:
    """Row-wise big-int matrix application: exact, loop-per-element."""
    out = np.empty(rows.shape, dtype=np.uint64)
    for r in range(rows.shape[0]):
        vals = [int(v) for v in rows[r]]
        for k, coeffs in enumerate(matrix):
            out[r, k] = sum(v * c for v, c in zip(vals, coeffs)) % q
    return out


def _input_rows(n: int, q: int) -> np.ndarray:
    """The structured sub-lattice plus the seeded random sweeps."""
    corners = _corner_values(q, n)
    rows = []
    for j in range(n):
        for k in range(j, n):
            for c in corners:
                for d in corners:
                    vec = [0] * n
                    vec[j] = c
                    vec[k] = (vec[k] + d) % q  # j == k folds into c + d
                    rows.append(vec)
    lattice = np.array(rows, dtype=np.uint64)
    sweeps = [
        np.random.default_rng(seed).integers(
            0, q, (SWEEP_VECTORS, n), dtype=np.uint64
        )
        for seed in RANDOM_SWEEP_SEEDS
    ]
    return np.concatenate([lattice, *sweeps], axis=0)


@lru_cache(maxsize=None)
def _ring_case(n: int):
    """(q, moduli, inputs, expected_ntt, expected_intt) for one ring.

    Cached so the big-int expectations are computed once and reused by
    every backend parametrization.
    """
    q = find_ntt_primes(16, 1, n)[0]
    inputs = _input_rows(n, q)
    moduli = (q,) * inputs.shape[0]
    fwd, inv = _dft_matrices(q, n)
    return (
        q,
        moduli,
        inputs,
        _oracle_apply(fwd, inputs, q),
        _oracle_apply(inv, inputs, q),
    )


@pytest.fixture(params=BACKENDS)
def backend(request):
    return kernels.resolve(request.param)


@pytest.mark.parametrize("n", RING_DEGREES)
def test_ntt_exhaustive_vs_oracle(backend, n):
    _, moduli, inputs, expected, _ = _ring_case(n)
    np.testing.assert_array_equal(backend.ntt(inputs, moduli), expected)


@pytest.mark.parametrize("n", RING_DEGREES)
def test_intt_exhaustive_vs_oracle(backend, n):
    _, moduli, inputs, _, expected = _ring_case(n)
    np.testing.assert_array_equal(backend.intt(inputs, moduli), expected)


@pytest.mark.parametrize("n", RING_DEGREES)
@pytest.mark.parametrize("radix_log2", (2, 3))
def test_fused_ntt_exhaustive_vs_oracle(backend, n, radix_log2):
    """The paper's fused radix-2^k kernel must hit the same oracle values.

    :class:`~repro.ntt.fusion.FusedNtt` is not a backend (fusion is a
    hardware trade the performance plane models), so it is run here
    directly, one vector at a time, and each backend must invert its
    output.
    """
    q, moduli, inputs, expected_fwd, expected_inv = _ring_case(n)
    fused = FusedNtt(q, n, radix_log2)
    got_fwd = np.stack([fused.forward(row) for row in inputs])
    np.testing.assert_array_equal(got_fwd, expected_fwd)
    np.testing.assert_array_equal(
        np.stack([fused.inverse(row) for row in inputs]), expected_inv
    )
    np.testing.assert_array_equal(backend.intt(got_fwd, moduli), inputs)


def test_elementwise_exhaustive_vs_oracle(backend):
    """Every (a, b) pair over the full residue range of a tiny prime.

    With q = 17 the 17x17 grid enumerates *all* input pairs for the
    binary operators — nothing is sampled.
    """
    q = 17
    grid = np.arange(q, dtype=np.uint64)
    a = np.repeat(grid, q)[None, :]
    b = np.tile(grid, q)[None, :]
    moduli = (q,)
    checks = {
        "mod_add": [(int(x) + int(y)) % q for x, y in zip(a[0], b[0])],
        "mod_sub": [(int(x) - int(y)) % q for x, y in zip(a[0], b[0])],
        "mod_mul": [(int(x) * int(y)) % q for x, y in zip(a[0], b[0])],
    }
    for op, expected in checks.items():
        got = getattr(backend, op)(a, b, moduli)
        np.testing.assert_array_equal(
            got[0], np.array(expected, dtype=np.uint64)
        )
    neg = backend.mod_neg(a, moduli)
    np.testing.assert_array_equal(
        neg[0], np.array([(-int(x)) % q for x in a[0]], dtype=np.uint64)
    )


def test_barrett_reduce_exhaustive_vs_oracle(backend):
    """Every input in [0, q^2) for a tiny prime — the full contract."""
    q = 13
    x = np.arange(q * q, dtype=np.uint64)[None, :]
    got = backend.barrett_reduce(x, (q,))
    np.testing.assert_array_equal(
        got[0], np.array([int(v) % q for v in x[0]], dtype=np.uint64)
    )


def test_lift_exhaustive_vs_oracle(backend):
    """Every digit value in [0, max(q)) lifted into a two-prime basis."""
    moduli = tuple(find_ntt_primes(16, 2, 4))
    top = max(moduli)
    row = np.arange(top, dtype=np.uint64)
    got = backend.lift(row, moduli)
    for i, q in enumerate(moduli):
        np.testing.assert_array_equal(
            got[i], np.array([int(v) % q for v in row], dtype=np.uint64)
        )


def test_basis_convert_exhaustive_vs_oracle(backend):
    """All (residue, table) corner combinations across a 2 -> 2 swap."""
    n = 4
    src = tuple(find_ntt_primes(16, 2, n))
    tgt = tuple(reversed(src))
    corners = {q: _corner_values(q, n) for q in src}
    for y0 in corners[src[0]]:
        for y1 in corners[src[1]]:
            y = np.empty((2, n), dtype=np.uint64)
            y[0, :] = y0
            y[1, :] = y1
            for t0 in corners[src[0]][:3]:
                for t1 in corners[src[1]][:3]:
                    table = np.array(
                        [[t0 % tgt[0], t1 % tgt[1]],
                         [t1 % tgt[0], t0 % tgt[1]]],
                        dtype=np.uint64,
                    )
                    got = backend.basis_convert(y, table, tgt)
                    for i, p in enumerate(tgt):
                        expected = (
                            int(y[0, 0]) % p * int(table[0, i])
                            + int(y[1, 0]) % p * int(table[1, i])
                        ) % p
                        assert got[i, 0] == expected, (y0, y1, t0, t1, p)
