"""Unit tests for key-material size accounting."""

import pytest

from repro.ckks.keysize import (
    ciphertext_bytes,
    fits_in_hbm,
    key_size_report,
    polynomial_bytes,
    switch_key_bytes,
)
from repro.ckks.params import CkksParameters


@pytest.fixture(scope="module")
def params():
    return CkksParameters.default(degree=256, levels=4, aux_count=2)


class TestSizes:
    def test_polynomial_bytes(self, params):
        assert polynomial_bytes(params) == 256 * 4 * 4
        assert polynomial_bytes(params, limbs=1) == 256 * 4

    def test_ciphertext_bytes(self, params):
        assert ciphertext_bytes(params) == 2 * polynomial_bytes(params)
        assert ciphertext_bytes(params, level=0) == 2 * 256 * 4

    def test_switch_key_dominates(self, params):
        """A switch key is ~L*(L+k)/L times a ciphertext — much bigger."""
        assert switch_key_bytes(params) > 4 * ciphertext_bytes(params)

    def test_switch_key_formula(self, params):
        chain, aux = 4, 2
        expected = chain * 2 * 256 * (chain + aux) * 4
        assert switch_key_bytes(params) == expected


class TestReport:
    def test_no_rotations(self, params):
        report = key_size_report(params)
        assert report.galois_key_count == 0
        assert report.galois_key_bytes == 0
        assert report.total_bytes == (
            report.public_key_bytes + report.relin_key_bytes
        )

    def test_rotations_add_conjugation(self, params):
        report = key_size_report(params, rotation_steps=5)
        assert report.galois_key_count == 6  # 5 rotations + conjugation
        assert report.galois_key_bytes == 6 * switch_key_bytes(params)

    def test_matches_real_keychain_structure(self, params):
        """The report sizes the actual key object's element count.

        The functional plane stores residues as 8-byte uint64 for
        numpy arithmetic; the hardware format is 4-byte limbs (the
        paper's 32-bit datapath), which is what the report prices.
        """
        from repro.ckks.keys import KeyChain
        from repro.sim.config import LIMB_BYTES

        keys = KeyChain.generate(params, seed=0)
        elements = keys.relin.data.size
        assert elements * LIMB_BYTES == switch_key_bytes(params)


class TestCapacity:
    def test_toy_params_fit_easily(self, params):
        assert fits_in_hbm(params, rotation_steps=30, ciphertext_count=100)

    def test_paper_scale_rotation_keys_pressure(self):
        """At bootstrapping scale, tens of Galois keys strain 8 GB —
        the phenomenon ARK's key-regeneration targets."""
        big = CkksParameters.default(degree=1 << 14, levels=24,
                                     aux_count=4)
        # Hundreds of rotation keys exceed the budget...
        assert not fits_in_hbm(
            big, rotation_steps=2000, ciphertext_count=10,
        )
        # ...a BSGS-sized working set fits.
        assert fits_in_hbm(big, rotation_steps=48, ciphertext_count=10)
