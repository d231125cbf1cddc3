"""The keyswitch primitive: digit decomposition -> NTT products -> ModDown.

This is the operation the paper spends most of its architecture on
(Fig. 4, RNSconv). Given a polynomial ``d`` encrypted under a source
key ``s'`` and the per-limb gadget key of :class:`~repro.ckks.keys.
SwitchKey`:

1. **Decompose/ModUp** (Eq. 3): each RNS digit ``d_j = [d]_{q_j}`` is
   lifted exactly into the extended basis ``Q_level ∪ P`` (the digit is
   a small integer, so the lift is a plain remainder per modulus — the
   MM/MA cascade of the hardware RNSconv unit).
2. Pointwise NTT-domain products of each lifted digit with key pair
   ``j``, accumulated across digits (MM + MA cores).
3. **ModDown** (Eq. 2): divide the accumulators by ``P`` and return to
   ``Q_level``.

Like Poseidon's pipeline, which streams every limb of every digit
through its lanes at once, each step is one kernel call over the whole
``(digits, limbs, N)`` stack: one lift, one forward NTT, one product
with the stacked ``b_j`` rows and one with the ``a_j`` rows, one
reduction of both digit sums and one inverse NTT of both accumulators.

The output pair ``(delta_0, delta_1)`` satisfies
``delta_0 + delta_1 * s ≈ d * s'`` with noise ``~ sum_j d_j e_j / P``.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import EvaluationError
from repro.ckks.keys import SwitchKey
from repro.ckks.params import CkksParameters
from repro.ntt.negacyclic import intt_stack, ntt_stack
from repro.obs import metrics
from repro.rns.basis_convert import mod_down
from repro.rns.context import RnsContext
from repro.rns.poly import Domain, RnsPolynomial


def mod_up_ntt(d: RnsPolynomial, target: RnsContext) -> np.ndarray:
    """Step 1 plus the digit NTTs: every digit of ``d`` lifted into
    ``target`` and transformed.

    The ``(D, N)`` digits become a ``(D, L', N)`` stack with one lift
    and one transform call. The digit values are bounded by their
    source primes (< 2^31), so a single remainder per target modulus
    reproduces each integer exactly.
    """
    lifted = kernels.get_backend().lift(d.data, target.moduli)
    return ntt_stack(lifted, target.moduli)


def key_products(
    digits_ntt: np.ndarray,
    key: SwitchKey,
    base: RnsContext,
    params: CkksParameters,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Steps 2-3: digit-by-key products, digit sum, INTT and ModDown.

    Args:
        digits_ntt: ``(D, L', N)`` NTT-domain digits over the extended
            basis of level ``D - 1``.
        key: the switch key to multiply with.
        base: the basis the result returns to.
        params: parameter set (provides the aux basis).
    """
    level = digits_ntt.shape[0] - 1
    ext_ctx = params.key_context_at_level(level)
    moduli = ext_ctx.moduli
    backend = kernels.get_backend()
    # Each product is below q < 2^31, so the sum over D < q digits is
    # exact in uint64 and below q^2: one Barrett reduction, not D.
    sums = np.stack([
        backend.mod_mul(digits_ntt, key.rows(part, level, params), moduli)
        .sum(axis=0)
        for part in (0, 1)  # the b_j rows, then the a_j rows
    ])
    coeff = intt_stack(backend.barrett_reduce(sums, moduli), moduli)
    return tuple(
        mod_down(
            RnsPolynomial(part, ext_ctx, Domain.COEFFICIENT),
            base,
            params.aux_context,
        )
        for part in coeff
    )


def apply_switch_key(
    d: RnsPolynomial,
    key: SwitchKey,
    params: CkksParameters,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Switch ``d`` from the key's source secret to the canonical ``s``.

    Args:
        d: coefficient-domain polynomial over a chain-prefix basis
           (e.g. the ``d_2`` part for relinearization, or a rotated
           ``c_1`` for rotation keyswitch).
        key: the per-limb gadget switch key for the source secret.
        params: parameter set (provides the aux basis).

    Returns:
        ``(delta_0, delta_1)`` over ``d``'s basis, coefficient domain.
    """
    if d.domain is not Domain.COEFFICIENT:
        raise EvaluationError("keyswitch input must be in coefficient domain")
    level = d.level_count - 1
    if level + 1 > key.rank:
        raise EvaluationError(
            f"switch key has rank {key.rank}, input needs {level + 1} digits"
        )
    ext_ctx = params.key_context_at_level(level)

    reg = metrics.active()
    if reg is not None:
        reg.counter("ckks.keyswitch.calls").inc()
        reg.counter("ckks.keyswitch.digits").inc(level + 1)
        # level+1 forward digit NTTs plus two inverse transforms, each
        # over every limb of the extended basis.
        reg.counter("ckks.keyswitch.ntt_limb_transforms").inc(
            (level + 3) * ext_ctx.level_count
        )

    return key_products(mod_up_ntt(d, ext_ctx), key, d.context, params)
