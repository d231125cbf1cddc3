"""The ``numpy`` kernel backend: fully vectorized uint64 hot paths.

Strategy
--------
Narrow moduli (<= 31 bits) run a Shoup-multiplication butterfly engine
with lazy reduction:

* Every twiddle ``w`` carries a precomputed companion
  ``w' = floor(w * 2^32 / q)`` so a modular product is three multiplies,
  one shift and one subtract — ``prod = w*x - ((w'*x) >> 32) * q < 3q``
  — with no ``%`` anywhere on the hot path.
* Butterfly operands stay *lazily* reduced below ``C = 4q`` (all moduli
  <= 30 bits) or ``C = 2q`` (a 31-bit modulus present). Conditional
  subtraction is the branch-free pair ``minimum(x, x - C)``: uint64
  wraparound makes ``x - C`` huge exactly when ``x < C``. One final
  normalisation pass brings values below ``q``.
* Early stages operate on ``(..., L, m, 2t)`` views with per-stage
  ``(L, m, 1)`` twiddle columns broadcast over each run; once butterfly
  runs drop below ``_TAIL_T`` the matrix is transposed once so every
  remaining stage keeps unit-stride inner loops (lane-major layout),
  then transposed back before the output permutation.
* Leading axes of a ``(..., L, N)`` stack are batch axes: every stage
  runs once over the whole stack, with the per-basis plan (twiddles,
  modulus columns) broadcast over them. Plans are keyed by
  ``(moduli, n)`` only, so stack height never creates a new plan.

Wide moduli (32..62 bits) take an eagerly-reduced path built on a
vectorized 64x64 -> 128-bit multiply (32-bit limb split) and a
full-width Barrett reduction (``mu = floor(2^2k / q)`` with per-modulus
shift columns) so intermediates never overflow ``uint64``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels.base import KernelBackend, check_matrix, moduli_key
from repro.ntt.tables import get_twiddle_table
from repro.utils.bitops import ilog2, reverse_bits_array

_U32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)

#: Butterfly runs shorter than this switch to the transposed layout.
_TAIL_T = 32

#: Widest modulus the Shoup/lazy narrow engine stays exact for.
_NARROW_BITS = 31


def _is_narrow(moduli: tuple[int, ...]) -> bool:
    return max(moduli).bit_length() <= _NARROW_BITS


@lru_cache(maxsize=64)
def _bitrev(n: int) -> np.ndarray:
    return reverse_bits_array(np.arange(n, dtype=np.int64), ilog2(n))


def _lane_view(src: np.ndarray, m: int, lanes: int) -> np.ndarray:
    """Stage twiddles rearranged lane-major for the transposed layout.

    Natural block ``g = b * msub + s`` (lane ``b``, sub-block ``s``)
    uses twiddle ``src[m + g]``; the returned ``(L, msub, 1, lanes)``
    array places it at ``[s, 0, b]`` so it broadcasts over the run.
    """
    levels = src.shape[0]
    msub = m // lanes
    sl = src[:, m:2 * m].reshape(levels, lanes, msub)
    return np.ascontiguousarray(
        sl.transpose(0, 2, 1)
    ).reshape(levels, msub, 1, lanes)


def _to_lanes(a: np.ndarray, lanes: int) -> np.ndarray:
    """``(..., N)`` natural order -> ``(..., N / lanes, lanes)`` copy."""
    split = a.shape[:-1] + (lanes, a.shape[-1] // lanes)
    return np.ascontiguousarray(a.reshape(split).swapaxes(-1, -2))


def _from_lanes(a: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_lanes`: back to ``(..., N)``."""
    natural = np.ascontiguousarray(a.swapaxes(-1, -2))
    return natural.reshape(a.shape[:-2] + (-1,))


class _NarrowPlan:
    """Per-(moduli, n) stage plan + twiddles for the narrow engine."""

    def __init__(self, moduli: tuple[int, ...], n: int):
        tbls = [get_twiddle_table(q, n) for q in moduli]
        qc = np.array(moduli, dtype=np.uint64)[:, None]
        self.q_col = qc
        self.lazy4 = max(moduli).bit_length() <= 30
        self.C_col = qc * np.uint64(4 if self.lazy4 else 2)
        self.C2_col = qc * np.uint64(2)
        self.bitrev = _bitrev(n)
        psi = np.stack([t.psi_powers_bitrev for t in tbls])
        ipsi = np.stack([t.ipsi_powers_bitrev for t in tbls])
        psi_sh = (psi << _U32) // qc  # w < 2^31, so the shift fits
        ipsi_sh = (ipsi << _U32) // qc
        inv_n = np.array(
            [t.inv_n for t in tbls], dtype=np.uint64
        )[:, None]
        self.inv_n_col = inv_n
        self.inv_n_sh = (inv_n << _U32) // qc

        # Lane count for the transposed tail: the smallest block count
        # whose stage has runs shorter than _TAIL_T. The forward and
        # inverse stage sets mirror, so they share it.
        lanes = 0
        m = 1
        while m < n:
            t = n // (2 * m)
            if t < _TAIL_T and m >= _TAIL_T:
                lanes = m
                break
            m <<= 1
        self.lanes = lanes

        def stage(w, ws, m):
            # Block count m (CT) or h (GS); runs of t butterflies share
            # one twiddle, stored once per block as a broadcast column.
            t = n // (2 * m)
            if lanes and m >= lanes:
                return ("lane", m, t, _lane_view(w, m, lanes),
                        _lane_view(ws, m, lanes))
            return ("full", m, t, w[:, m:2 * m, None].copy(),
                    ws[:, m:2 * m, None].copy())

        # Forward (CT) stages, m = 1 .. n/2: runs shrink. Inverse (GS)
        # stages, h = n/2 .. 1: runs grow.
        counts = [1 << k for k in range(ilog2(n))]
        self.fwd = [stage(psi, psi_sh, m) for m in counts]
        self.inv = [stage(ipsi, ipsi_sh, h) for h in reversed(counts)]


@lru_cache(maxsize=32)
def _narrow_plan(moduli: tuple[int, ...], n: int) -> _NarrowPlan:
    return _NarrowPlan(moduli, n)


def _stage_fwd(lo, hi, w, ws, q, bound, u1, u2, u3, lazy4):
    """One CT butterfly stage, operands kept below ``bound``.

    ``(lo, hi) <- (lo + w*hi, lo - w*hi)`` with the Shoup product
    (``prod < 3q``) folded into the lazy-reduction discipline.
    """
    np.multiply(hi, ws, out=u1)
    np.right_shift(u1, _U32, out=u1)
    np.multiply(u1, q, out=u1)
    np.multiply(hi, w, out=u2)
    np.subtract(u2, u1, out=u2)  # prod < 3q
    if not lazy4:
        np.subtract(u2, bound, out=u3)
        np.minimum(u2, u3, out=u2)  # prod < 2q = bound
    np.subtract(bound, u2, out=u1)
    np.add(lo, u1, out=u1)  # lo + (bound - prod)
    np.subtract(u1, bound, out=u3)
    np.minimum(u1, u3, out=hi)
    np.add(lo, u2, out=u2)  # lo + prod
    np.subtract(u2, bound, out=u3)
    np.minimum(u2, u3, out=lo)


def _stage_inv(lo, hi, w, ws, q, bound, u1, u2, u3, lazy4):
    """One GS butterfly stage: ``(lo, hi) <- (lo + hi, w*(lo - hi))``."""
    np.add(lo, hi, out=u1)  # sum < 2*bound
    np.add(lo, bound, out=u2)
    np.subtract(u2, hi, out=u2)  # diff < 2*bound
    np.subtract(u2, bound, out=u3)
    np.minimum(u2, u3, out=u2)  # diff < bound <= 2^32
    np.multiply(u2, ws, out=u3)
    np.right_shift(u3, _U32, out=u3)
    np.multiply(u3, q, out=u3)
    np.multiply(u2, w, out=u2)
    if lazy4:
        np.subtract(u2, u3, out=hi)  # prod < 3q < bound
    else:
        np.subtract(u2, u3, out=u2)
        np.subtract(u2, bound, out=u3)
        np.minimum(u2, u3, out=hi)  # prod < 2q = bound
    np.subtract(u1, bound, out=u3)
    np.minimum(u1, u3, out=lo)


def _run_stages(a, plan: _NarrowPlan, stages, butterfly) -> np.ndarray:
    """Apply ``stages`` in place to a writable ``(..., L, N)`` stack.

    Switches to the lane-major layout for "lane" stages and back for
    "full" ones; the result is in natural layout.
    """
    lead = a.shape[:-1]
    b1, b2, b3 = (
        np.empty(lead + (a.shape[-1] >> 1,), dtype=np.uint64)
        for _ in range(3)
    )
    q3 = plan.q_col[:, :, None]
    c3 = plan.C_col[:, :, None]
    lanes = plan.lanes
    transposed = False
    for kind, m, t, w, ws in stages:
        lane = kind == "lane"
        if lane != transposed:
            a = _to_lanes(a, lanes) if lane else _from_lanes(a)
            transposed = lane
        if lane:
            v = a.reshape(lead + (m // lanes, 2 * t, lanes))
            lo, hi = v[..., :t, :], v[..., t:, :]
            q, bound = q3[..., None], c3[..., None]
        else:
            v = a.reshape(lead + (m, 2 * t))
            lo, hi = v[..., :t], v[..., t:]
            q, bound = q3, c3
        butterfly(
            lo, hi, w, ws, q, bound,
            b1.reshape(lo.shape), b2.reshape(lo.shape), b3.reshape(lo.shape),
            plan.lazy4,
        )
    return _from_lanes(a) if transposed else a


def _run_fwd(a: np.ndarray, plan: _NarrowPlan) -> np.ndarray:
    a = _run_stages(a, plan, plan.fwd, _stage_fwd)
    out = a[..., plan.bitrev]
    # Normalize the lazy values below q, reusing ``a`` as scratch.
    if plan.lazy4:
        np.subtract(out, plan.C2_col, out=a)
        np.minimum(out, a, out=out)
    np.subtract(out, plan.q_col, out=a)
    np.minimum(out, a, out=out)
    return out


def _run_inv(src: np.ndarray, plan: _NarrowPlan) -> np.ndarray:
    a = _run_stages(src[..., plan.bitrev], plan, plan.inv, _stage_inv)
    # Scale by n^-1 (Shoup), then normalize the lazy values below q.
    u = np.multiply(a, plan.inv_n_sh)
    np.right_shift(u, _U32, out=u)
    np.multiply(u, plan.q_col, out=u)
    np.multiply(a, plan.inv_n_col, out=a)
    np.subtract(a, u, out=a)  # < 3q
    np.subtract(a, plan.C2_col, out=u)
    np.minimum(a, u, out=a)
    np.subtract(a, plan.q_col, out=u)
    np.minimum(a, u, out=a)
    return a


# ----------------------------------------------------------------------
# Wide path: 32..62-bit moduli via 128-bit products + full Barrett.

def _mul128(a, b):
    """Full 128-bit product of uint64 arrays as a ``(hi, lo)`` pair."""
    ah = a >> _U32
    al = a & _MASK32
    bh = b >> _U32
    bl = b & _MASK32
    ll = al * bl
    lh = al * bh
    hl = ah * bl
    mid = (ll >> _U32) + (lh & _MASK32) + (hl & _MASK32)  # < 3 * 2^32
    lo = (mid << _U32) | (ll & _MASK32)
    hi = ah * bh + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    return hi, lo


@lru_cache(maxsize=256)
def _wide_columns(moduli: tuple[int, ...]):
    """Barrett constants as ``(L, 1)`` columns for 128-bit reduction.

    ``mu = floor(2^2k / q) < 2^(k+1) <= 2^63`` for ``k <= 62``; the
    shift pairs ``(k-1, 65-k)`` and ``(k+1, 63-k)`` stay in ``[1, 63]``
    so no shift count ever reaches the undefined 64.
    """
    def col(values):
        return np.array(values, dtype=np.uint64)[:, None]

    bits = [int(q).bit_length() for q in moduli]
    return (
        col(moduli),
        col([(1 << (2 * k)) // int(q) for k, q in zip(bits, moduli)]),
        col([k - 1 for k in bits]),
        col([65 - k for k in bits]),
        col([k + 1 for k in bits]),
        col([63 - k for k in bits]),
    )


def _barrett_wide(hi, lo, cols):
    """Reduce ``hi * 2^64 + lo < q^2`` below ``q`` (q up to 2^62)."""
    q, mu, sh1, sh1c, sh2, sh2c = cols
    q1 = (hi << sh1c) | (lo >> sh1)  # floor(x / 2^(k-1)) < 2^(k+1)
    h2, l2 = _mul128(q1, mu)
    q3 = (h2 << sh2c) | (l2 >> sh2)  # floor(q1 * mu / 2^(k+1))
    r = lo - q3 * q  # wrapping 64-bit; the true remainder is < 3q
    r = np.minimum(r, r - q)
    return np.minimum(r, r - q)


def _mulmod_wide(a, b, cols):
    hi, lo = _mul128(a, b)
    return _barrett_wide(hi, lo, cols)


class _WidePlan:
    """Eager-reduction NTT tables for 32..62-bit moduli."""

    def __init__(self, moduli: tuple[int, ...], n: int):
        tbls = [get_twiddle_table(q, n) for q in moduli]
        self.q_col = np.array(moduli, dtype=np.uint64)[:, None]
        self.bitrev = _bitrev(n)
        self.psi = np.stack([t.psi_powers_bitrev for t in tbls])
        self.ipsi = np.stack([t.ipsi_powers_bitrev for t in tbls])
        self.inv_n_col = np.array(
            [t.inv_n for t in tbls], dtype=np.uint64
        )[:, None]
        self.cols = _wide_columns(moduli)
        self.cols3 = tuple(c[:, :, None] for c in self.cols)


@lru_cache(maxsize=32)
def _wide_plan(moduli: tuple[int, ...], n: int) -> _WidePlan:
    return _WidePlan(moduli, n)


def _run_fwd_wide(a: np.ndarray, plan: _WidePlan) -> np.ndarray:
    lead, n = a.shape[:-1], a.shape[-1]
    q3 = plan.q_col[:, :, None]
    t, m = n, 1
    while m < n:
        t >>= 1
        a3 = a.reshape(lead + (m, 2 * t))
        lo = a3[..., :t]
        hi = a3[..., t:]
        w = plan.psi[:, m:2 * m, None]
        prod = _mulmod_wide(hi, w, plan.cols3)  # < q
        s = lo + prod  # < 2q < 2^63
        s = np.minimum(s, s - q3)
        d = lo + (q3 - prod)
        d = np.minimum(d, d - q3)
        a3[..., :t] = s
        a3[..., t:] = d
        m <<= 1
    return a[..., plan.bitrev]


def _run_inv_wide(src: np.ndarray, plan: _WidePlan) -> np.ndarray:
    a = src[..., plan.bitrev]
    lead, n = a.shape[:-1], a.shape[-1]
    q3 = plan.q_col[:, :, None]
    t, m = 1, n
    while m > 1:
        h = m >> 1
        a3 = a.reshape(lead + (h, 2 * t))
        lo = a3[..., :t]
        hi = a3[..., t:]
        w = plan.ipsi[:, h:2 * h, None]
        s = lo + hi
        s = np.minimum(s, s - q3)
        d = lo + (q3 - hi)
        d = np.minimum(d, d - q3)
        prod = _mulmod_wide(d, w, plan.cols3)
        a3[..., :t] = s
        a3[..., t:] = prod
        t <<= 1
        m = h
    return _mulmod_wide(a, plan.inv_n_col, plan.cols)


# ----------------------------------------------------------------------
# Elementwise helpers shared by the public backend methods.

@lru_cache(maxsize=256)
def _narrow_columns(moduli: tuple[int, ...]):
    """Classic single-word Barrett columns for moduli <= 31 bits."""
    q = np.array(moduli, dtype=np.uint64)[:, None]
    bits = [int(m).bit_length() for m in moduli]
    mu = np.array(
        [(1 << (2 * k)) // int(m) for k, m in zip(bits, moduli)],
        dtype=np.uint64,
    )[:, None]
    klo = np.array([k - 1 for k in bits], dtype=np.uint64)[:, None]
    khi = np.array([k + 1 for k in bits], dtype=np.uint64)[:, None]
    return q, mu, klo, khi


def _barrett_narrow(x, cols):
    """Reduce ``x < q^2`` below ``q`` for moduli <= 31 bits.

    ``x`` must be scratch the caller owns: it is overwritten, so the
    reduction needs one temporary of its size rather than six.
    """
    q, mu, klo, khi = cols
    r = np.right_shift(x, klo)
    r *= mu  # q1, mu < 2^(k+1); product < 2^64 for k <= 31
    r >>= khi
    r *= q
    np.subtract(x, r, out=r)  # < 3q
    for _ in range(2):
        np.subtract(r, q, out=x)
        np.minimum(r, x, out=r)
    return r


def _mulmod_rows(a, b, moduli):
    """``a * b mod q`` row-wise; operands must already be below q."""
    if _is_narrow(moduli):
        return _barrett_narrow(a * b, _narrow_columns(moduli))
    return _mulmod_wide(a, b, _wide_columns(moduli))


@lru_cache(maxsize=256)
def _q_column(moduli: tuple[int, ...]) -> np.ndarray:
    """The ``(L, 1)`` modulus column of a basis."""
    return np.array(moduli, dtype=np.uint64)[:, None]


class NumpyBackend(KernelBackend):
    """Vectorized uint64 kernels — Shoup/lazy narrow, Barrett wide.

    Every operator except :meth:`basis_convert` takes ``(..., L, N)``
    stacks natively: the modulus columns and NTT plans broadcast over
    the leading axes.
    """

    name = "numpy"
    max_modulus_bits = 62

    # ------------------------------------------------------------------
    def ntt(self, data, moduli):
        data = self._check(data, moduli)
        self._count("ntt", data.size)
        key = moduli_key(moduli)
        n = data.shape[-1]
        if _is_narrow(key):
            return _run_fwd(data.copy(), _narrow_plan(key, n))
        return _run_fwd_wide(data.copy(), _wide_plan(key, n))

    def intt(self, data, moduli):
        data = self._check(data, moduli)
        self._count("intt", data.size)
        key = moduli_key(moduli)
        n = data.shape[-1]
        if _is_narrow(key):
            return _run_inv(data, _narrow_plan(key, n))
        return _run_inv_wide(data, _wide_plan(key, n))

    # ------------------------------------------------------------------
    def mod_add(self, a, b, moduli):
        a = self._check(a, moduli)
        b = check_matrix(b, moduli)
        self._count("elementwise", a.size)
        q = _q_column(moduli_key(moduli))
        s = a + b  # both < q <= 2^62, so the sum fits
        return np.minimum(s, s - q, out=s)

    def mod_sub(self, a, b, moduli):
        a = self._check(a, moduli)
        b = check_matrix(b, moduli)
        self._count("elementwise", a.size)
        q = _q_column(moduli_key(moduli))
        d = a + (q - b)
        return np.minimum(d, d - q, out=d)

    def mod_neg(self, a, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        q = _q_column(moduli_key(moduli))
        d = q - a  # equals q when a == 0; the csub folds it to 0
        return np.minimum(d, d - q, out=d)

    def mod_mul(self, a, b, moduli):
        a = self._check(a, moduli)
        b = check_matrix(b, moduli)
        self._count("elementwise", a.size)
        return _mulmod_rows(a, b, moduli_key(moduli))

    def mod_scalar_mul(self, a, scalars, moduli):
        a = self._check(a, moduli)
        self._count("elementwise", a.size)
        key = moduli_key(moduli)
        s_col = np.array(
            [int(s) % q for s, q in zip(scalars, key)], dtype=np.uint64
        )[:, None]
        return _mulmod_rows(a, s_col, key)

    # ------------------------------------------------------------------
    def barrett_reduce(self, x, moduli):
        x = self._check(x, moduli)
        self._count("barrett", x.size)
        key = moduli_key(moduli)
        if _is_narrow(key):
            return _barrett_narrow(x.copy(), _narrow_columns(key))
        zero = np.zeros_like(x)
        return _barrett_wide(zero, x, _wide_columns(key))

    def lift(self, row, moduli):
        row = np.asarray(row, dtype=np.uint64)
        self.check_moduli(moduli)
        self._count("lift", row.size * len(moduli))
        return row[..., None, :] % _q_column(moduli_key(moduli))

    def basis_convert(self, y, table, target_moduli):
        y = np.asarray(y, dtype=np.uint64)
        table = np.asarray(table, dtype=np.uint64)
        self.check_moduli(target_moduli)
        src_limbs, n = y.shape
        self._count("basis_convert", n * len(target_moduli))
        key = moduli_key(target_moduli)
        p_col = _q_column(key)
        acc = np.zeros((len(key), n), dtype=np.uint64)
        for j in range(src_limbs):
            resid = y[j][None, :] % p_col
            term = _mulmod_rows(resid, table[j][:, None], key)
            acc += term  # < 2p < 2^63
            np.minimum(acc, acc - p_col, out=acc)
        return acc


class BatchedAlias(NumpyBackend):
    """Deprecated ``batched`` name, kept so old selections still resolve.

    The limb-vectorized ``batched`` backend was retired once the stage
    engine above outran it; this alias runs that engine (sharing its
    plan caches) and only reports counters under its own name.
    """

    name = "batched"
