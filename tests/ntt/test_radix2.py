"""Unit tests for the iterative radix-2 NTT/INTT kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.errors import NTTError
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.reference import intt_reference, ntt_reference
from repro.ntt.tables import get_twiddle_table
from repro.utils.primes import find_ntt_primes

N = 64
Q = find_ntt_primes(30, 1, N)[0]
TABLE = get_twiddle_table(Q, N)


def random_vec(seed=0, n=N, q=Q):
    return np.random.default_rng(seed).integers(0, q, n, dtype=np.uint64)


class TestRoundtrip:
    def test_forward_inverse_identity(self):
        x = random_vec(1)
        assert np.array_equal(intt_radix2(ntt_radix2(x, TABLE), TABLE), x)

    def test_inverse_forward_identity(self):
        x = random_vec(2)
        assert np.array_equal(ntt_radix2(intt_radix2(x, TABLE), TABLE), x)

    @given(st.integers(0, 2**31))
    @settings(max_examples=20)
    def test_roundtrip_property(self, seed):
        x = random_vec(seed)
        assert np.array_equal(intt_radix2(ntt_radix2(x, TABLE), TABLE), x)

    @pytest.mark.parametrize("n", [8, 16, 128, 512])
    def test_roundtrip_other_sizes(self, n):
        q = find_ntt_primes(28, 1, n)[0]
        table = get_twiddle_table(q, n)
        x = random_vec(3, n, q)
        assert np.array_equal(intt_radix2(ntt_radix2(x, table), table), x)


class TestAgainstReference:
    def test_forward_matches_twisted_reference(self):
        """Negacyclic NTT = cyclic NTT of the psi-twisted input."""
        x = random_vec(4)
        twisted = (x * TABLE.psi_powers) % np.uint64(Q)
        expected = ntt_reference(twisted, TABLE.omega, Q)
        assert np.array_equal(ntt_radix2(x, TABLE), expected)

    def test_inverse_matches_reference(self):
        x = random_vec(5)
        f = ntt_radix2(x, TABLE)
        cyc = intt_reference(f, TABLE.omega, Q)
        untwisted = (cyc * TABLE.ipsi_powers) % np.uint64(Q)
        assert np.array_equal(intt_radix2(f, TABLE), untwisted)


class TestLinearity:
    def test_additive(self):
        a, b = random_vec(6), random_vec(7)
        fa = ntt_radix2(a, TABLE).astype(object)
        fb = ntt_radix2(b, TABLE).astype(object)
        fsum = ntt_radix2((a + b) % np.uint64(Q), TABLE).astype(object)
        assert ((fa + fb) % Q).tolist() == fsum.tolist()

    def test_zero_fixed_point(self):
        z = np.zeros(N, dtype=np.uint64)
        assert not np.any(ntt_radix2(z, TABLE))
        assert not np.any(intt_radix2(z, TABLE))

    def test_constant_transform(self):
        """NTT of a constant polynomial is constant across outputs?

        No — negacyclic evaluation of constant c gives c at every
        root; verify that directly.
        """
        c = 12345
        x = np.zeros(N, dtype=np.uint64)
        x[0] = c
        f = ntt_radix2(x, TABLE)
        assert np.all(f == c)


class TestConvolution:
    def test_negacyclic_product_via_hadamard(self):
        a, b = random_vec(8), random_vec(9)
        fa, fb = ntt_radix2(a, TABLE), ntt_radix2(b, TABLE)
        prod = intt_radix2((fa * fb) % np.uint64(Q), TABLE)
        # Schoolbook negacyclic reference.
        ref = [0] * N
        for i in range(N):
            for j in range(N):
                v = int(a[i]) * int(b[j])
                if i + j >= N:
                    ref[i + j - N] = (ref[i + j - N] - v) % Q
                else:
                    ref[i + j] = (ref[i + j] + v) % Q
        assert prod.astype(object).tolist() == ref

    def test_multiply_by_x_shifts_with_sign(self):
        """x * a(x) rotates coefficients with a negacyclic sign flip."""
        a = random_vec(10)
        x_poly = np.zeros(N, dtype=np.uint64)
        x_poly[1] = 1
        fa = ntt_radix2(a, TABLE)
        fx = ntt_radix2(x_poly, TABLE)
        prod = intt_radix2((fa * fx) % np.uint64(Q), TABLE)
        assert prod[0] == (Q - a[N - 1]) % Q
        assert np.array_equal(prod[1:], a[: N - 1])


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(NTTError):
            ntt_radix2(np.zeros(32, dtype=np.uint64), TABLE)


class TestPolyHelpers:
    def test_poly_roundtrip(self):
        """Multi-limb transforms: the reference backend runs these
        kernels once per limb row."""
        primes = find_ntt_primes(30, 3, N)
        rng = np.random.default_rng(12)
        data = np.stack(
            [rng.integers(0, q, N, dtype=np.uint64) for q in primes]
        )
        reference = kernels.resolve("reference")
        f = reference.ntt(data, primes)
        np.testing.assert_array_equal(
            f[0], ntt_radix2(data[0], get_twiddle_table(primes[0], N))
        )
        back = reference.intt(f, primes)
        assert np.array_equal(back, data)
