"""Negacyclic transforms of RNS polynomials, used by the CKKS layer.

The ring is ``R_q = Z_q[x]/(x^n + 1)``, so polynomial products are
*negacyclic* convolutions. The functions here transform whole RNS
matrices — or stacks of them, in one kernel call — on the active kernel
backend, the way the 64 parallel NTT cores in Poseidon chew through
every limb at once. They are the only source of the ``ntt.*`` counters.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.errors import NTTError
from repro.obs import metrics
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.bitops import ilog2


def _count_poly_transforms(direction: str, limbs: int, degree: int) -> None:
    """Semantic TAM counters for an all-limbs transform, any backend."""
    reg = metrics.active()
    if reg is not None:
        reg.counter(f"ntt.transforms.{direction}").inc(limbs)
        reg.counter("ntt.butterflies").inc(
            limbs * (degree // 2) * ilog2(degree)
        )


def ntt_stack(data: np.ndarray, moduli) -> np.ndarray:
    """Forward NTT of every matrix of a ``(..., L, N)`` residue stack.

    One call on the active kernel backend, however tall the stack; the
    ``ntt.*`` counters count one transform per limb row.
    """
    _count_poly_transforms("forward", data.size // data.shape[-1], data.shape[-1])
    return kernels.get_backend().ntt(data, moduli)


def intt_stack(data: np.ndarray, moduli) -> np.ndarray:
    """Inverse of :func:`ntt_stack`, also one kernel call."""
    _count_poly_transforms("inverse", data.size // data.shape[-1], data.shape[-1])
    return kernels.get_backend().intt(data, moduli)


def _stack_polys(polys, domain: Domain) -> np.ndarray:
    context = polys[0].context
    for poly in polys:
        if poly.domain is not domain:
            raise NTTError(f"expected {domain.value}-domain polynomials")
        if poly.context != context:
            raise NTTError("stacked transforms need one shared RNS basis")
    return np.stack([poly.data for poly in polys])


def ntt_polys(polys) -> tuple[RnsPolynomial, ...]:
    """NTT coefficient-domain polynomials over one basis in one call."""
    context = polys[0].context
    data = ntt_stack(_stack_polys(polys, Domain.COEFFICIENT), context.moduli)
    return tuple(RnsPolynomial(d, context, Domain.NTT) for d in data)


def intt_polys(polys) -> tuple[RnsPolynomial, ...]:
    """INTT NTT-domain polynomials over one basis in one call."""
    context = polys[0].context
    data = intt_stack(_stack_polys(polys, Domain.NTT), context.moduli)
    return tuple(RnsPolynomial(d, context, Domain.COEFFICIENT) for d in data)


def ntt_negacyclic(poly: RnsPolynomial) -> RnsPolynomial:
    """Transform an RNS polynomial to the NTT domain (all limbs)."""
    if poly.domain is not Domain.COEFFICIENT:
        raise NTTError("polynomial is already in the NTT domain")
    data = ntt_stack(poly.data, poly.context.moduli)
    return RnsPolynomial(data, poly.context, Domain.NTT)


def intt_negacyclic(poly: RnsPolynomial) -> RnsPolynomial:
    """Transform an RNS polynomial back to the coefficient domain."""
    if poly.domain is not Domain.NTT:
        raise NTTError("polynomial is already in the coefficient domain")
    data = intt_stack(poly.data, poly.context.moduli)
    return RnsPolynomial(data, poly.context, Domain.COEFFICIENT)


def poly_multiply(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    """Negacyclic product of two coefficient-domain RNS polynomials."""
    fa = ntt_negacyclic(a)
    fb = ntt_negacyclic(b)
    return intt_negacyclic(fa.hadamard(fb))
