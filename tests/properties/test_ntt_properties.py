"""Property-based NTT/INTT invariants, checked on every kernel backend.

The three load-bearing properties:

1. ``INTT(NTT(a)) == a`` — the transforms are mutually inverse.
2. ``INTT(NTT(a) ⊙ NTT(b)) == a * b mod (x^n + 1)`` against a big-int
   O(n^2) oracle — the transform actually diagonalizes the negacyclic
   ring, not just *some* invertible map.
3. The paper's fused radix-2^k kernel (:class:`~repro.ntt.fusion.
   FusedNtt`) is bit-identical to every backend's radix-2 transform
   for k in {2, 3} — fusion changes the reduction schedule, never the
   value.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import kernels
from repro.errors import KernelError

from ._support import (
    BACKENDS,
    backends_supporting,
    negacyclic_convolution,
    oracle_transform,
    residue_matrices,
    wide_residue_matrices,
)

FUSION_RADICES = (1, 2, 3)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("radix_log2", FUSION_RADICES)
@given(drawn=residue_matrices())
def test_ntt_intt_roundtrip(backend_name, radix_log2, drawn):
    data, moduli = drawn
    backend = kernels.resolve(backend_name)
    fwd = backend.ntt(data, moduli)
    back = backend.intt(fwd, moduli)
    np.testing.assert_array_equal(back, data)
    assert back.dtype == np.uint64
    # The radix-2^k inverse undoes this backend's forward transform too.
    np.testing.assert_array_equal(
        oracle_transform(fwd, moduli, radix_log2, inverse=True), data
    )


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(drawn=residue_matrices(max_limbs=2), seed=st.integers(0, 2**32 - 1))
def test_pointwise_product_is_negacyclic_convolution(
    backend_name, drawn, seed
):
    a, moduli = drawn
    rng = np.random.default_rng(seed)
    b = np.stack(
        [rng.integers(0, q, a.shape[1], dtype=np.uint64) for q in moduli]
    )
    backend = kernels.resolve(backend_name)
    prod_ntt = backend.mod_mul(
        backend.ntt(a, moduli), backend.ntt(b, moduli), moduli
    )
    got = backend.intt(prod_ntt, moduli)
    for i, q in enumerate(moduli):
        expected = negacyclic_convolution(a[i], b[i], q)
        np.testing.assert_array_equal(got[i], np.array(expected, np.uint64))


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("radix_log2", (2, 3))
@given(drawn=residue_matrices())
def test_fused_radix_matches_radix2(backend_name, radix_log2, drawn):
    data, moduli = drawn
    backend = kernels.resolve(backend_name)
    np.testing.assert_array_equal(
        oracle_transform(data, moduli, radix_log2),
        backend.ntt(data, moduli),
    )
    np.testing.assert_array_equal(
        oracle_transform(data, moduli, radix_log2, inverse=True),
        backend.intt(data, moduli),
    )


@pytest.mark.parametrize("radix_log2", FUSION_RADICES)
@given(drawn=residue_matrices())
def test_backends_bit_identical_on_transforms(radix_log2, drawn):
    """Every registered backend matches the radix-2^k oracle exactly."""
    data, moduli = drawn
    want_fwd = oracle_transform(data, moduli, radix_log2)
    want_inv = oracle_transform(data, moduli, radix_log2, inverse=True)
    for name in BACKENDS:
        if name == "reference":
            continue
        other = kernels.resolve(name)
        np.testing.assert_array_equal(want_fwd, other.ntt(data, moduli))
        np.testing.assert_array_equal(want_inv, other.intt(data, moduli))


@given(drawn=wide_residue_matrices(), seed=st.integers(0, 2**32 - 1))
def test_overflow_edge_roundtrip_and_convolution(drawn, seed):
    """Moduli near 2^62: products span 124 bits, where any single-word
    uint64 Barrett shortcut silently corrupts. Capable backends must
    still invert exactly and diagonalize the negacyclic ring."""
    a, moduli = drawn
    names = backends_supporting(moduli)
    assert "numpy" in names  # the wide path must actually be exercised
    rng = np.random.default_rng(seed)
    b = np.stack(
        [rng.integers(0, q, a.shape[1], dtype=np.uint64) for q in moduli]
    )
    for name in names:
        backend = kernels.resolve(name)
        fwd = backend.ntt(a, moduli)
        np.testing.assert_array_equal(backend.intt(fwd, moduli), a)
        got = backend.intt(
            backend.mod_mul(fwd, backend.ntt(b, moduli), moduli), moduli
        )
        for i, q in enumerate(moduli):
            expected = negacyclic_convolution(a[i], b[i], q)
            np.testing.assert_array_equal(
                got[i], np.array(expected, np.uint64)
            )


@given(drawn=wide_residue_matrices())
def test_overflow_edge_rejected_by_narrow_backends(drawn):
    """Backends without a wide path must refuse, not corrupt."""
    data, moduli = drawn
    capable = set(backends_supporting(moduli))
    for name in BACKENDS:
        if name in capable:
            continue
        with pytest.raises(KernelError):
            kernels.resolve(name).ntt(data, moduli)


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(drawn=residue_matrices(), seed=st.integers(0, 2**32 - 1))
def test_ntt_is_linear(backend_name, drawn, seed):
    """NTT(a + b) == NTT(a) + NTT(b) — transforms are ring-additive."""
    a, moduli = drawn
    rng = np.random.default_rng(seed)
    b = np.stack(
        [rng.integers(0, q, a.shape[1], dtype=np.uint64) for q in moduli]
    )
    backend = kernels.resolve(backend_name)
    lhs = backend.ntt(backend.mod_add(a, b, moduli), moduli)
    rhs = backend.mod_add(
        backend.ntt(a, moduli), backend.ntt(b, moduli), moduli
    )
    np.testing.assert_array_equal(lhs, rhs)
