"""Unit and property tests for the MA/MM modular arithmetic kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RNSError
from repro.rns.modular import (
    MAX_MODULUS,
    check_modulus,
    mod_add,
    mod_inverse,
    mod_mul,
    mod_neg,
    mod_scalar_mul,
    mod_sub,
)

Q = 1073741441  # 30-bit NTT prime


def rand_residues(n, q, seed=0):
    return np.random.default_rng(seed).integers(0, q, n, dtype=np.uint64)


class TestCheckModulus:
    def test_accepts_30bit(self):
        assert check_modulus(Q) == Q

    def test_rejects_too_large(self):
        with pytest.raises(RNSError):
            check_modulus(MAX_MODULUS + 1)

    def test_rejects_tiny(self):
        with pytest.raises(RNSError):
            check_modulus(2)


class TestModAdd:
    def test_matches_numpy(self):
        a = rand_residues(1000, Q, 1)
        b = rand_residues(1000, Q, 2)
        expected = (a.astype(object) + b.astype(object)) % Q
        assert mod_add(a, b, Q).astype(object).tolist() == expected.tolist()

    def test_no_overflow_at_max(self):
        a = np.array([Q - 1], dtype=np.uint64)
        assert mod_add(a, a, Q)[0] == Q - 2

    def test_zero_identity(self):
        a = rand_residues(64, Q)
        z = np.zeros(64, dtype=np.uint64)
        assert np.array_equal(mod_add(a, z, Q), a)


class TestModSub:
    def test_matches_reference(self):
        a = rand_residues(500, Q, 3)
        b = rand_residues(500, Q, 4)
        expected = (a.astype(np.int64) - b.astype(np.int64)) % Q
        assert np.array_equal(mod_sub(a, b, Q).astype(np.int64), expected)

    def test_self_is_zero(self):
        a = rand_residues(64, Q)
        assert not np.any(mod_sub(a, a, Q))


class TestModNeg:
    def test_add_neg_is_zero(self):
        a = rand_residues(256, Q, 5)
        assert not np.any(mod_add(a, mod_neg(a, Q), Q))

    def test_neg_zero(self):
        z = np.zeros(4, dtype=np.uint64)
        assert not np.any(mod_neg(z, Q))


class TestModMul:
    def test_matches_bigint(self):
        a = rand_residues(300, Q, 6)
        b = rand_residues(300, Q, 7)
        got = mod_mul(a, b, Q)
        for i in range(300):
            assert int(got[i]) == int(a[i]) * int(b[i]) % Q

    def test_scalar_mul(self):
        a = rand_residues(64, Q, 8)
        got = mod_scalar_mul(a, 123456, Q)
        for i in range(64):
            assert int(got[i]) == int(a[i]) * 123456 % Q

    def test_scalar_reduced_first(self):
        a = np.array([2], dtype=np.uint64)
        assert int(mod_scalar_mul(a, Q + 3, Q)[0]) == 6


class TestModInverse:
    def test_inverse_roundtrip(self):
        for a in (1, 2, 12345, Q - 1):
            inv = mod_inverse(a, Q)
            assert a * inv % Q == 1

    def test_non_invertible(self):
        with pytest.raises(RNSError):
            mod_inverse(6, 12)

    @given(st.integers(1, Q - 1))
    @settings(max_examples=50)
    def test_inverse_property(self, a):
        assert a * mod_inverse(a, Q) % Q == 1


@given(st.data())
@settings(max_examples=30)
def test_field_axioms_sampled(data):
    """Commutativity / associativity / distributivity on random triples."""
    q = 536870909  # 29-bit prime
    ints = st.integers(0, q - 1)
    a = np.array([data.draw(ints)], dtype=np.uint64)
    b = np.array([data.draw(ints)], dtype=np.uint64)
    c = np.array([data.draw(ints)], dtype=np.uint64)
    assert mod_add(a, b, q)[0] == mod_add(b, a, q)[0]
    assert mod_mul(a, b, q)[0] == mod_mul(b, a, q)[0]
    left = mod_mul(a, mod_add(b, c, q), q)[0]
    right = mod_add(mod_mul(a, b, q), mod_mul(a, c, q), q)[0]
    assert left == right
