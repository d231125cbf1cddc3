"""The ``reference`` kernel backend: one numpy call per limb row.

This is the original execution strategy of the functional plane — a
Python-level loop over limbs, each limb handled by the radix-2 kernels
in :mod:`repro.ntt.radix2` and the per-modulus operators in
:mod:`repro.rns.modular`. It stays the correctness oracle the numpy
backend is differentially tested against, and takes ``(..., L, N)``
stacks through the generic :func:`~repro.kernels.base.over_leading_axes`
loop.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import KernelBackend, over_leading_axes
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.tables import get_twiddle_table
from repro.rns.barrett import GLOBAL_SBT_BANK
from repro.rns.modular import (
    mod_add,
    mod_mul,
    mod_neg,
    mod_scalar_mul,
    mod_sub,
)


class ReferenceBackend(KernelBackend):
    """Scalar/per-limb kernels — unchanged semantics, limb-at-a-time."""

    name = "reference"

    # ------------------------------------------------------------------
    @over_leading_axes()
    def ntt(self, data, moduli):
        data = self._check(data, moduli)
        n = data.shape[1]
        self._count("ntt", data.size)
        return np.stack([
            ntt_radix2(data[i], get_twiddle_table(q, n))
            for i, q in enumerate(moduli)
        ])

    @over_leading_axes()
    def intt(self, data, moduli):
        data = self._check(data, moduli)
        n = data.shape[1]
        self._count("intt", data.size)
        return np.stack([
            intt_radix2(data[i], get_twiddle_table(q, n))
            for i, q in enumerate(moduli)
        ])

    # ------------------------------------------------------------------
    @over_leading_axes(arrays=2)
    def mod_add(self, a, b, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        return np.stack(
            [mod_add(a[i], b[i], q) for i, q in enumerate(moduli)]
        )

    @over_leading_axes(arrays=2)
    def mod_sub(self, a, b, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        return np.stack(
            [mod_sub(a[i], b[i], q) for i, q in enumerate(moduli)]
        )

    @over_leading_axes()
    def mod_neg(self, a, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        return np.stack([mod_neg(a[i], q) for i, q in enumerate(moduli)])

    @over_leading_axes(arrays=2)
    def mod_mul(self, a, b, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        return np.stack(
            [mod_mul(a[i], b[i], q) for i, q in enumerate(moduli)]
        )

    @over_leading_axes()
    def mod_scalar_mul(self, a, scalars, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        return np.stack(
            [
                mod_scalar_mul(a[i], int(s), q)
                for i, (q, s) in enumerate(zip(moduli, scalars))
            ]
        )

    # ------------------------------------------------------------------
    @over_leading_axes()
    def barrett_reduce(self, x, moduli):
        x = np.asarray(x, dtype=np.uint64)
        self.check_moduli(moduli)
        self._count("barrett", x.size)
        return np.stack(
            [
                GLOBAL_SBT_BANK.get(q).reduce(x[i])
                for i, q in enumerate(moduli)
            ]
        )

    @over_leading_axes(core_ndim=1)
    def lift(self, row, moduli):
        row = np.asarray(row, dtype=np.uint64)
        self.check_moduli(moduli)
        self._count("lift", row.size * len(moduli))
        return np.stack([row % np.uint64(q) for q in moduli])

    def basis_convert(self, y, table, target_moduli):
        y = np.asarray(y, dtype=np.uint64)
        table = np.asarray(table, dtype=np.uint64)
        self.check_moduli(target_moduli)
        src_limbs, n = y.shape
        self._count("basis_convert", n * len(target_moduli))
        out = np.zeros((len(target_moduli), n), dtype=np.uint64)
        for i, p in enumerate(target_moduli):
            acc = np.zeros(n, dtype=np.uint64)
            p64 = np.uint64(p)
            for j in range(src_limbs):
                term = mod_mul(y[j] % p64, table[j, i], p)
                acc = (acc + term) % p64
            out[i] = acc
        return out
