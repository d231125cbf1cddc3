"""Negacyclic transform façade used by the CKKS layer.

The ring is ``R_q = Z_q[x]/(x^n + 1)``, so polynomial products are
*negacyclic* convolutions. :class:`NegacyclicTransformer` bundles the
forward/inverse kernels (radix-2 by default, radix-2^k fused when the
caller opts in) behind one object per (q, n) pair, and the module-level
functions transform whole RNS matrices — or stacks of them, in one
kernel call — on the active kernel backend, the way the 64 parallel
NTT cores in Poseidon chew through every limb at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro import kernels
from repro.errors import NTTError
from repro.ntt.fusion import FusedNtt
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.tables import get_twiddle_table
from repro.obs import metrics
from repro.rns.poly import Domain, RnsPolynomial
from repro.utils.bitops import ilog2


class NegacyclicTransformer:
    """Forward/inverse negacyclic NTT for one modulus and degree.

    Args:
        q: NTT-friendly limb prime (q ≡ 1 mod 2n).
        n: ring degree.
        radix_log2: 1 selects the iterative radix-2 kernels; >= 2
            selects the fused radix-2^k kernel (bit-identical results).
    """

    def __init__(self, q: int, n: int, *, radix_log2: int = 1):
        self.q = q
        self.n = n
        self.radix_log2 = radix_log2
        self.table = get_twiddle_table(q, n)
        self._fused = FusedNtt(q, n, radix_log2) if radix_log2 >= 2 else None

    def _count_transform(self, direction: str) -> None:
        # (n/2) * log2(n) TAM butterflies per length-n transform,
        # independent of the kernel (fusion changes reductions, not
        # butterfly count).
        reg = metrics.active()
        if reg is not None:
            reg.counter(f"ntt.transforms.{direction}").inc()
            reg.counter("ntt.butterflies").inc(
                (self.n // 2) * ilog2(self.n)
            )

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Coefficient -> point-value (NTT) representation."""
        self._count_transform("forward")
        if self._fused is not None:
            return self._fused.forward(values)
        return ntt_radix2(values, self.table)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Point-value (NTT) -> coefficient representation."""
        self._count_transform("inverse")
        if self._fused is not None:
            return self._fused.inverse(values)
        return intt_radix2(values, self.table)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full negacyclic product of two coefficient vectors."""
        fa = self.forward(a)
        fb = self.forward(b)
        prod = (fa * fb) % np.uint64(self.q)
        return self.inverse(prod)


@lru_cache(maxsize=1024)
def get_transformer(q: int, n: int, radix_log2: int = 1) -> NegacyclicTransformer:
    """Cached transformer per (q, n, radix)."""
    return NegacyclicTransformer(q, n, radix_log2=radix_log2)


def _count_poly_transforms(direction: str, limbs: int, degree: int) -> None:
    """Semantic TAM counters for an all-limbs transform, any backend."""
    reg = metrics.active()
    if reg is not None:
        reg.counter(f"ntt.transforms.{direction}").inc(limbs)
        reg.counter("ntt.butterflies").inc(
            limbs * (degree // 2) * ilog2(degree)
        )


def ntt_stack(
    data: np.ndarray,
    moduli,
    *,
    radix_log2: int = 1,
    backend: str | kernels.KernelBackend | None = None,
) -> np.ndarray:
    """Forward NTT of every matrix of a ``(..., L, N)`` residue stack.

    One call on the kernel backend (``None``: the active one), however
    tall the stack; the ``ntt.*`` counters count one transform per limb
    row.
    """
    _count_poly_transforms("forward", data.size // data.shape[-1], data.shape[-1])
    return kernels.resolve(backend).ntt(data, moduli, radix_log2=radix_log2)


def intt_stack(
    data: np.ndarray,
    moduli,
    *,
    radix_log2: int = 1,
    backend: str | kernels.KernelBackend | None = None,
) -> np.ndarray:
    """Inverse of :func:`ntt_stack`, also one kernel call."""
    _count_poly_transforms("inverse", data.size // data.shape[-1], data.shape[-1])
    return kernels.resolve(backend).intt(data, moduli, radix_log2=radix_log2)


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


def ntt_negacyclic(
    poly: RnsPolynomial,
    *,
    radix_log2: int = 1,
    backend: str | kernels.KernelBackend | None = None,
) -> RnsPolynomial:
    """Transform an RNS polynomial to the NTT domain (all limbs).

    Routed through the active kernel backend; ``backend`` overrides the
    process-wide selection for this call.
    """
    if poly.domain is not Domain.COEFFICIENT:
        raise NTTError("polynomial is already in the NTT domain")
    data = ntt_stack(
        poly.data, poly.context.moduli, radix_log2=radix_log2, backend=backend
    )
    return RnsPolynomial(data, poly.context, Domain.NTT)


def intt_negacyclic(
    poly: RnsPolynomial,
    *,
    radix_log2: int = 1,
    backend: str | kernels.KernelBackend | None = None,
) -> RnsPolynomial:
    """Transform an RNS polynomial back to the coefficient domain."""
    if poly.domain is not Domain.NTT:
        raise NTTError("polynomial is already in the coefficient domain")
    data = intt_stack(
        poly.data, poly.context.moduli, radix_log2=radix_log2, backend=backend
    )
    return RnsPolynomial(data, poly.context, Domain.COEFFICIENT)


def poly_multiply(a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
    """Negacyclic product of two coefficient-domain RNS polynomials."""
    fa = ntt_negacyclic(a)
    fb = ntt_negacyclic(b)
    return intt_negacyclic(fa.hadamard(fb))
