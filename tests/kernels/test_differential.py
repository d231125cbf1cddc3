"""Differential suite: every backend must be bit-identical to reference.

Every instrumented kernel op is driven through the reference backend
and each other registered backend on randomized (fixed-seed) inputs
over every functional-plane preset from :mod:`repro.ckks.presets` —
full chain, keyswitch (chain + aux) and auxiliary bases — and the
outputs are compared with ``assert_array_equal`` (exact equality, not
allclose). Because all ops produce uniquely-defined residues in
``[0, q)``, any mathematically correct implementation must match bit
for bit; a single differing word is a kernel bug.

The suite parametrizes over ``kernels.available_backends()`` so a
newly-registered backend is covered without editing this file. A final
section exercises the overflow edge — moduli near 2^62, where residue
products span 124 bits and any single-word uint64 Barrett shortcut
silently corrupts. The reference backend cannot serve as the oracle
there (its arithmetic is exact only to 31-bit moduli), so wide-capable
backends are checked against Python big-int arithmetic directly and
narrow backends must refuse rather than corrupt.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.ckks import presets
from repro.errors import KernelError
from repro.rns.context import RnsContext
from repro.utils.primes import find_ntt_primes
from tests.properties._support import oracle_transform

REFERENCE = kernels.resolve("reference")

#: Every backend the reference oracle is differentially tested against.
OTHER_BACKENDS = tuple(
    name for name in kernels.available_backends() if name != "reference"
)

_PRESETS = {
    "toy": lambda: presets.toy(),
    "demo": lambda: presets.demo(),
    "bootstrap": lambda: presets.bootstrap_capable()[0],
}


def _bases(params):
    """The three basis/degree shapes the evaluator actually touches."""
    top = params.max_level
    return {
        "chain": params.context_at_level(top).moduli,
        "key": params.key_context_at_level(top).moduli,
        "aux": params.aux_context.moduli,
    }


def _cases():
    for preset_name, make in _PRESETS.items():
        params = make()
        for basis_name, moduli in _bases(params).items():
            yield pytest.param(
                moduli, params.degree, id=f"{preset_name}-{basis_name}"
            )


CASES = list(_cases())


def _matrix(moduli, degree, seed):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, q, degree, dtype=np.uint64) for q in moduli]
    )


@pytest.fixture(params=OTHER_BACKENDS)
def other(request):
    return kernels.resolve(request.param)


@pytest.mark.parametrize("moduli,degree", CASES)
@pytest.mark.parametrize("radix_log2", (1, 2, 3))
def test_ntt_intt_differential(other, moduli, degree, radix_log2):
    """``other`` matches the radix-2^k oracle (fused for k >= 2)."""
    data = _matrix(moduli, degree, seed=radix_log2)
    ref_fwd = oracle_transform(data, moduli, radix_log2)
    got_fwd = other.ntt(data, moduli)
    np.testing.assert_array_equal(ref_fwd, got_fwd)
    np.testing.assert_array_equal(
        oracle_transform(ref_fwd, moduli, radix_log2, inverse=True),
        other.intt(got_fwd, moduli),
    )


@pytest.mark.parametrize("moduli,degree", CASES)
@pytest.mark.parametrize("op", ("mod_add", "mod_sub", "mod_mul"))
def test_binary_elementwise_differential(other, moduli, degree, op):
    a = _matrix(moduli, degree, seed=11)
    b = _matrix(moduli, degree, seed=13)
    np.testing.assert_array_equal(
        getattr(REFERENCE, op)(a, b, moduli),
        getattr(other, op)(a, b, moduli),
    )


@pytest.mark.parametrize("moduli,degree", CASES)
def test_neg_differential(other, moduli, degree):
    a = _matrix(moduli, degree, seed=17)
    # Force some zero residues: negation of 0 must stay 0, not become q.
    a[:, :4] = 0
    np.testing.assert_array_equal(
        REFERENCE.mod_neg(a, moduli), other.mod_neg(a, moduli)
    )


@pytest.mark.parametrize("moduli,degree", CASES)
def test_scalar_mul_differential(other, moduli, degree):
    a = _matrix(moduli, degree, seed=19)
    rng = np.random.default_rng(23)
    scalars = [int(rng.integers(0, q)) for q in moduli]
    np.testing.assert_array_equal(
        REFERENCE.mod_scalar_mul(a, scalars, moduli),
        other.mod_scalar_mul(a, scalars, moduli),
    )


@pytest.mark.parametrize("moduli,degree", CASES)
def test_barrett_reduce_differential(other, moduli, degree):
    rng = np.random.default_rng(29)
    # Inputs up to q^2 — the post-multiply range Barrett is built for.
    x = np.stack([
        rng.integers(0, int(q) * int(q), degree, dtype=np.uint64)
        for q in moduli
    ])
    ref = REFERENCE.barrett_reduce(x, moduli)
    got = other.barrett_reduce(x, moduli)
    np.testing.assert_array_equal(ref, got)
    for i, q in enumerate(moduli):
        np.testing.assert_array_equal(ref[i], x[i] % np.uint64(q))


@pytest.mark.parametrize("moduli,degree", CASES)
def test_lift_differential(other, moduli, degree):
    rng = np.random.default_rng(31)
    row = rng.integers(0, min(moduli), degree, dtype=np.uint64)
    np.testing.assert_array_equal(
        REFERENCE.lift(row, moduli), other.lift(row, moduli)
    )


@pytest.mark.parametrize("preset_name", sorted(_PRESETS))
def test_basis_convert_differential(other, preset_name):
    """RNSconv inner cascade: chain basis -> aux basis, both backends."""
    params = _PRESETS[preset_name]()
    source = params.context_at_level(params.max_level)
    target = params.aux_context
    y = _matrix(source.moduli, params.degree, seed=37)
    table = np.array(
        [
            [q_hat % p for p in target.moduli]
            for q_hat in source.punctured_products
        ],
        dtype=np.uint64,
    )
    np.testing.assert_array_equal(
        REFERENCE.basis_convert(y, table, target.moduli),
        other.basis_convert(y, table, target.moduli),
    )


@pytest.mark.parametrize("moduli,degree", CASES)
def test_edge_values_differential(other, moduli, degree):
    """All-zero and all-(q-1) matrices — the residue range extremes."""
    qcol = np.array(moduli, dtype=np.uint64)[:, None]
    zeros = np.zeros((len(moduli), degree), dtype=np.uint64)
    tops = np.broadcast_to(qcol - 1, zeros.shape).copy()
    for a, b in ((zeros, zeros), (tops, tops), (zeros, tops)):
        for op in ("mod_add", "mod_sub", "mod_mul"):
            np.testing.assert_array_equal(
                getattr(REFERENCE, op)(a, b, moduli),
                getattr(other, op)(a, b, moduli),
            )
    np.testing.assert_array_equal(
        REFERENCE.intt(REFERENCE.ntt(tops, moduli), moduli), tops
    )
    np.testing.assert_array_equal(
        other.intt(other.ntt(tops, moduli), moduli), tops
    )


def test_all_presets_cover_wide_and_narrow_primes():
    """The case matrix must exercise both fused reduction paths."""
    seen_bits = set()
    for moduli, _ in (c.values for c in CASES):
        seen_bits.update(int(q).bit_length() for q in moduli)
    assert 30 in seen_bits and 31 in seen_bits


def test_mixed_context_spot_check(other):
    """A hand-built disjoint basis mixing widths, degree 512."""
    degree = 512
    moduli = tuple(
        find_ntt_primes(30, 3, degree) + find_ntt_primes(31, 2, degree)
    )
    RnsContext(moduli)  # validates the basis is legal
    data = _matrix(moduli, degree, seed=41)
    got = other.ntt(data, moduli)
    for k in (1, 2, 3):
        np.testing.assert_array_equal(
            oracle_transform(data, moduli, k), got
        )


# ----------------------------------------------------------------------
# Overflow edge: moduli near 2^62

WIDE_DEGREE = 64
WIDE_MODULI = tuple(find_ntt_primes(62, 2, WIDE_DEGREE))


def _wide_backends():
    widest = max(int(q).bit_length() for q in WIDE_MODULI)
    return tuple(
        name
        for name in kernels.available_backends()
        if kernels.resolve(name).max_modulus_bits >= widest
    )


def test_wide_moduli_have_a_capable_backend():
    """The overflow-edge section must not silently become a no-op."""
    assert "numpy" in _wide_backends()


@pytest.mark.parametrize("name", sorted(_wide_backends()))
def test_wide_elementwise_vs_bigint_oracle(name):
    """62-bit elementwise ops against Python-int arithmetic.

    The reference backend cannot be the oracle here, so the comparison
    target is big-int math — slower but unconditionally exact.
    """
    backend = kernels.resolve(name)
    moduli = WIDE_MODULI
    a = _matrix(moduli, WIDE_DEGREE, seed=43)
    b = _matrix(moduli, WIDE_DEGREE, seed=47)
    oracles = {
        "mod_add": lambda x, y, q: (x + y) % q,
        "mod_sub": lambda x, y, q: (x - y) % q,
        "mod_mul": lambda x, y, q: x * y % q,
    }
    for op, fn in oracles.items():
        got = getattr(backend, op)(a, b, moduli)
        for i, q in enumerate(moduli):
            expected = [
                fn(int(x), int(y), q) for x, y in zip(a[i], b[i])
            ]
            np.testing.assert_array_equal(
                got[i], np.array(expected, dtype=np.uint64)
            )
    scalars = [q - 2 for q in moduli]
    got = backend.mod_scalar_mul(a, scalars, moduli)
    for i, q in enumerate(moduli):
        expected = [int(x) * (q - 2) % q for x in a[i]]
        np.testing.assert_array_equal(
            got[i], np.array(expected, dtype=np.uint64)
        )


@pytest.mark.parametrize("name", sorted(_wide_backends()))
def test_wide_barrett_and_lift_vs_bigint_oracle(name):
    backend = kernels.resolve(name)
    moduli = WIDE_MODULI
    rng = np.random.default_rng(53)
    # Inputs span the full uint64 range: q^2 overflows, so the widest
    # legal Barrett domain here is [0, 2^64).
    x = rng.integers(0, 1 << 64, (len(moduli), WIDE_DEGREE), dtype=np.uint64)
    got = backend.barrett_reduce(x, moduli)
    for i, q in enumerate(moduli):
        expected = [int(v) % q for v in x[i]]
        np.testing.assert_array_equal(
            got[i], np.array(expected, dtype=np.uint64)
        )
    row = rng.integers(0, 1 << 64, WIDE_DEGREE, dtype=np.uint64)
    lifted = backend.lift(row, moduli)
    for i, q in enumerate(moduli):
        expected = [int(v) % q for v in row]
        np.testing.assert_array_equal(
            lifted[i], np.array(expected, dtype=np.uint64)
        )


@pytest.mark.parametrize("name", sorted(_wide_backends()))
def test_wide_basis_convert_vs_bigint_oracle(name):
    backend = kernels.resolve(name)
    src = WIDE_MODULI
    tgt = tuple(find_ntt_primes(61, 2, WIDE_DEGREE))
    y = _matrix(src, WIDE_DEGREE, seed=59)
    rng = np.random.default_rng(61)
    table = np.stack(
        [rng.integers(0, p, len(src), dtype=np.uint64) for p in tgt],
        axis=1,
    )
    got = backend.basis_convert(y, table, tgt)
    for i, p in enumerate(tgt):
        expected = [
            sum(
                int(y[j, col]) % p * int(table[j, i]) for j in range(len(src))
            )
            % p
            for col in range(WIDE_DEGREE)
        ]
        np.testing.assert_array_equal(
            got[i], np.array(expected, dtype=np.uint64)
        )


def test_wide_moduli_rejected_by_narrow_backends():
    """Backends without a wide path must refuse, not corrupt."""
    capable = set(_wide_backends())
    data = _matrix(WIDE_MODULI, WIDE_DEGREE, seed=67)
    for name in kernels.available_backends():
        if name in capable:
            continue
        with pytest.raises(KernelError, match="moduli up to"):
            kernels.resolve(name).ntt(data, WIDE_MODULI)


# ----------------------------------------------------------------------
# Stacks: (..., L, N) inputs equal one call per (L, N) matrix

STACK_SHAPES = ((1,), (3,), (2, 2))


def _stack_bases():
    for degree in (16, 64, 256):  # 64 and 256 reach the lane-major tail
        moduli = tuple(
            find_ntt_primes(30, 2, degree) + find_ntt_primes(31, 1, degree)
        )
        yield pytest.param(moduli, degree, id=f"N{degree}")
    yield pytest.param(WIDE_MODULI, WIDE_DEGREE, id="wide62")


def _per_matrix(fn, *stacks):
    """Oracle: ``fn`` called once per matrix of the leading axes."""
    lead = stacks[0].shape[:-2]
    flat = [s.reshape((-1,) + s.shape[-2:]) for s in stacks]
    out = np.stack([fn(*mats) for mats in zip(*flat)])
    return out.reshape(lead + out.shape[1:])


@pytest.mark.parametrize("name", kernels.available_backends())
@pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
@pytest.mark.parametrize("moduli,degree", list(_stack_bases()))
def test_stack_matches_per_matrix_calls(name, shape, moduli, degree):
    backend = kernels.resolve(name)
    if max(moduli).bit_length() > backend.max_modulus_bits:
        pytest.skip(f"{name} has no wide-moduli path")
    count = int(np.prod(shape))
    a = np.stack(
        [_matrix(moduli, degree, seed=71 + i) for i in range(count)]
    ).reshape(shape + (len(moduli), degree))
    b = np.stack(
        [_matrix(moduli, degree, seed=89 + i) for i in range(count)]
    ).reshape(a.shape)
    for op in ("ntt", "intt", "barrett_reduce"):
        fn = getattr(backend, op)
        np.testing.assert_array_equal(
            fn(a, moduli), _per_matrix(lambda m: fn(m, moduli), a)
        )
    for op in ("mod_add", "mod_mul"):
        fn = getattr(backend, op)
        np.testing.assert_array_equal(
            fn(a, b, moduli),
            _per_matrix(lambda x, y: fn(x, y, moduli), a, b),
        )
        # One matrix broadcast against the whole stack.
        single = b.reshape((-1,) + b.shape[-2:])[0]
        np.testing.assert_array_equal(
            fn(a, single, moduli),
            _per_matrix(lambda x: fn(x, single, moduli), a),
        )
    rows = a[..., 0, :]  # (..., N) digit rows
    np.testing.assert_array_equal(
        backend.lift(rows, moduli),
        _per_matrix(
            lambda r: backend.lift(r[0], moduli), rows[..., None, :]
        ),
    )


def test_stack_height_reuses_the_basis_plan():
    """Plans are keyed by (moduli, n): taller stacks add no plan."""
    from repro.kernels import numpy_backend

    backend = kernels.resolve("numpy")
    moduli = tuple(find_ntt_primes(30, 3, 64))
    data = _matrix(moduli, 64, seed=97)
    backend.intt(backend.ntt(data, moduli), moduli)
    misses = numpy_backend._narrow_plan.cache_info().misses
    for height in (2, 5):
        stack = np.stack([data] * height)
        backend.intt(backend.ntt(stack, moduli), moduli)
    assert numpy_backend._narrow_plan.cache_info().misses == misses
