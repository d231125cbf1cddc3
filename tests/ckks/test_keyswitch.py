"""Unit tests for the keyswitch primitive itself."""

import numpy as np
import pytest

from repro import kernels
from repro.errors import EvaluationError
from repro.automorphism.galois import (
    conjugation_element,
    galois_element_for_rotation,
)
from repro.ckks.keyswitch import apply_switch_key
from repro.ntt.negacyclic import intt_negacyclic, ntt_negacyclic
from repro.rns.basis_convert import mod_down
from repro.rns.poly import Domain, RnsPolynomial


class TestLiftDigit:
    def test_exact_lift(self, params):
        rng = np.random.default_rng(0)
        q0 = params.chain_moduli[0]
        digit = rng.integers(0, q0, params.degree, dtype=np.uint64)
        target = params.key_context
        lifted = RnsPolynomial(
            kernels.get_backend().lift(digit, target.moduli),
            target,
            Domain.COEFFICIENT,
        )
        # The lift must represent the same integers in every limb.
        recovered = lifted.to_integers(signed=False)
        assert recovered == [int(v) for v in digit]


class TestApplySwitchKey:
    def test_relin_key_decrypts_to_d_times_s2(self, params, keys):
        """delta0 + delta1*s ≈ d * s^2 for the relinearization key."""
        rng = np.random.default_rng(1)
        ctx = params.context
        d = RnsPolynomial.from_integers(
            [int(v) for v in rng.integers(0, 100, params.degree)], ctx
        )
        delta0, delta1 = apply_switch_key(d, keys.relin, params)

        s_ntt = keys.secret.poly_ntt(ctx)
        got = delta0 + intt_negacyclic(
            ntt_negacyclic(delta1).hadamard(s_ntt)
        )
        # Expected: d * s^2 over the ring.
        s2 = s_ntt.hadamard(s_ntt)
        expected = intt_negacyclic(ntt_negacyclic(d).hadamard(s2))
        diff = (got - expected).to_integers()
        noise = max(abs(v) for v in diff)
        # Keyswitch noise ~ digits * q * e / P + rounding: small.
        assert noise < params.degree * 64

    def test_works_at_lower_level(self, params, keys):
        ctx = params.context_at_level(1)
        d = RnsPolynomial.from_integers([7] * params.degree, ctx)
        delta0, delta1 = apply_switch_key(d, keys.relin, params)
        assert delta0.context == ctx
        assert delta1.context == ctx

    def test_rejects_ntt_domain(self, params, keys):
        d = RnsPolynomial.zeros(params.degree, params.context).with_domain(
            Domain.NTT
        )
        with pytest.raises(EvaluationError):
            apply_switch_key(d, keys.relin, params)

    def test_galois_key_switches_rotated_secret(self, params, keys):
        """For the rotation key: delta0 + delta1*s ≈ d * sigma_k(s)."""
        from repro.automorphism.galois import galois_element_for_rotation
        from repro.ckks.keys import _apply_automorphism_integers

        rng = np.random.default_rng(2)
        galois = galois_element_for_rotation(params.degree, 2)
        key = keys.galois_key(galois)
        ctx = params.context
        d = RnsPolynomial.from_integers(
            [int(v) for v in rng.integers(0, 50, params.degree)], ctx
        )
        delta0, delta1 = apply_switch_key(d, key, params)
        s_ntt = keys.secret.poly_ntt(ctx)
        got = delta0 + intt_negacyclic(
            ntt_negacyclic(delta1).hadamard(s_ntt)
        )
        rot_s = RnsPolynomial.from_integers(
            _apply_automorphism_integers(
                list(keys.secret.coefficients), params.degree, galois
            ),
            ctx,
        )
        expected = intt_negacyclic(
            ntt_negacyclic(d).hadamard(ntt_negacyclic(rot_s))
        )
        diff = (got - expected).to_integers()
        assert max(abs(v) for v in diff) < params.degree * 64


def _per_digit_switch(d, key, params):
    """Oracle: the keyswitch as a loop over digits, one lift, NTT and
    pair of products per digit, reduced after every accumulation."""
    level = d.level_count - 1
    ext = params.key_context_at_level(level)
    chain_len = len(params.chain_moduli)
    keep = list(range(level + 1)) + list(
        range(chain_len, chain_len + len(params.aux_moduli))
    )
    acc_b = acc_a = None
    for j in range(level + 1):
        lifted = np.stack([d.data[j] % np.uint64(q) for q in ext.moduli])
        digit = ntt_negacyclic(RnsPolynomial(lifted, ext, Domain.COEFFICIENT))
        term_b = digit.hadamard(
            RnsPolynomial(key.data[0, j][keep], ext, Domain.NTT)
        )
        term_a = digit.hadamard(
            RnsPolynomial(key.data[1, j][keep], ext, Domain.NTT)
        )
        acc_b = term_b if acc_b is None else acc_b + term_b
        acc_a = term_a if acc_a is None else acc_a + term_a
    return tuple(
        mod_down(intt_negacyclic(acc), d.context, params.aux_context)
        for acc in (acc_b, acc_a)
    )


@pytest.mark.parametrize("backend", ("numpy", "reference"))
@pytest.mark.parametrize("kind", ("relin", "rotation", "conjugation"))
def test_digit_batched_switch_matches_per_digit_oracle(
    params, keys, backend, kind
):
    """The stacked keyswitch is bit-identical to the per-digit loop at
    the bottom, middle and top levels, for every kind of switch key."""
    key = {
        "relin": lambda: keys.relin,
        "rotation": lambda: keys.galois_key(
            galois_element_for_rotation(params.degree, 3)
        ),
        "conjugation": lambda: keys.galois_key(
            conjugation_element(params.degree)
        ),
    }[kind]()
    rng = np.random.default_rng(5)
    with kernels.use_backend(backend):
        for level in (0, params.max_level // 2, params.max_level):
            ctx = params.context_at_level(level)
            d = RnsPolynomial(
                np.stack([
                    rng.integers(0, q, params.degree, dtype=np.uint64)
                    for q in ctx.moduli
                ]),
                ctx,
                Domain.COEFFICIENT,
            )
            got = apply_switch_key(d, key, params)
            want = _per_digit_switch(d, key, params)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.data, w.data)
