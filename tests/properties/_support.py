"""Shared strategies and oracles for the property suite.

Inputs are kept intentionally small (degree <= 64, <= 4 limbs) so each
hypothesis example runs in microseconds; the kernels are shape-generic,
so any bug at paper scale that is not purely a size-threshold bug also
exists at these sizes. The 31-bit pool matters: products of 31-bit
residues are large enough that deferred reduction in a vectorized
kernel would overflow uint64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from repro import kernels
from repro.ntt.fusion import FusedNtt
from repro.utils.primes import find_ntt_primes

#: Largest ring degree the suite exercises. Any power-of-two degree
#: n <= MAX_DEGREE works with these pools, since 2*MAX_DEGREE | q - 1
#: implies 2n | q - 1.
MAX_DEGREE = 64
DEGREES = (16, 32, 64)

PRIME_POOL_30 = tuple(find_ntt_primes(30, 4, MAX_DEGREE))
PRIME_POOL_31 = tuple(find_ntt_primes(31, 2, MAX_DEGREE))

#: Overflow-edge pool: primes just below 2^62, the widest moduli any
#: backend supports. Naive uint64 Barrett (single-word mu, 2k-bit
#: intermediates) breaks here — products reach 124 bits — so these
#: exercise the 128-bit split-reduction path exclusively.
PRIME_POOL_62 = tuple(find_ntt_primes(62, 2, MAX_DEGREE))

#: Every registered backend; property tests parametrize over this so a
#: newly-registered backend is covered without editing each test.
BACKENDS = kernels.available_backends()


def backends_supporting(moduli) -> tuple[str, ...]:
    """Backend names whose exact-arithmetic range covers ``moduli``."""
    widest = max(int(q).bit_length() for q in moduli)
    return tuple(
        name
        for name in BACKENDS
        if kernels.resolve(name).max_modulus_bits >= widest
    )


@st.composite
def rns_shapes(draw, max_limbs: int = 4):
    """Draw ``(moduli, degree)`` mixing 30- and 31-bit primes."""
    degree = draw(st.sampled_from(DEGREES))
    limbs = draw(st.integers(min_value=1, max_value=max_limbs))
    include_wide = draw(st.booleans())
    pool = (PRIME_POOL_31 + PRIME_POOL_30) if include_wide else PRIME_POOL_30
    return pool[:limbs], degree


@st.composite
def residue_matrices(draw, max_limbs: int = 4):
    """Draw ``(data, moduli)`` with ``data`` a reduced (L, N) matrix."""
    moduli, degree = draw(rns_shapes(max_limbs=max_limbs))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    data = np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli]
    )
    return data, moduli


@st.composite
def wide_residue_matrices(draw, max_limbs: int = 2):
    """Draw ``(data, moduli)`` over the 62-bit overflow-edge pool."""
    degree = draw(st.sampled_from(DEGREES[:2]))  # keep big-int oracles fast
    limbs = draw(st.integers(min_value=1, max_value=max_limbs))
    moduli = PRIME_POOL_62[:limbs]
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    data = np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli]
    )
    return data, moduli


def random_matrix(moduli, degree: int, seed: int) -> np.ndarray:
    """Fixed-seed reduced (L, N) matrix for the given basis."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli]
    )


def negacyclic_convolution(a, b, q: int) -> list[int]:
    """O(n^2) big-int negacyclic product — the NTT-free oracle.

    Computes ``a * b mod (x^n + 1, q)`` with Python integers only, so
    it shares no code (and no bugs) with the kernels under test.
    """
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        for j in range(n):
            k = i + j
            term = ai * int(b[j])
            if k >= n:
                out[k - n] = (out[k - n] - term) % q
            else:
                out[k] = (out[k] + term) % q
    return out


@lru_cache(maxsize=256)
def _fused(q: int, n: int, radix_log2: int) -> FusedNtt:
    return FusedNtt(q, n, radix_log2)


def oracle_transform(data, moduli, radix_log2: int, *, inverse=False):
    """Radix-2^k transform of every limb row of an ``(L, N)`` matrix.

    ``radix_log2 = 1`` is the reference backend's radix-2 kernel; larger
    ``k`` runs the paper's fused radix-2^k kernel
    (:class:`~repro.ntt.fusion.FusedNtt`) limb by limb. Fusion changes
    the reduction schedule, never the value, so every backend must match
    this for every ``k``.
    """
    if radix_log2 == 1:
        reference = kernels.resolve("reference")
        return (reference.intt if inverse else reference.ntt)(data, moduli)
    n = data.shape[-1]
    rows = []
    for row, q in zip(data, moduli):
        fused = _fused(int(q), n, radix_log2)
        rows.append(fused.inverse(row) if inverse else fused.forward(row))
    return np.stack(rows)
