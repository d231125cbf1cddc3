"""Kernel backend interface and the shared per-basis helpers.

A *kernel backend* owns the arithmetic hot paths of the functional
plane: negacyclic NTT/INTT over whole ``(L, N)`` residue matrices and
the element-wise modular operators (the software MA/MM/SBT cores).
Everything above this layer — :class:`~repro.rns.poly.RnsPolynomial`,
the basis-conversion cascade, keyswitching, the evaluator — calls
through :func:`repro.kernels.get_backend` and never touches a limb
loop directly, so swapping the execution strategy is a one-line (or
one-env-var) decision.

The NTT and element-wise operators also accept *stacks*: ``(..., L,
N)`` arrays whose leading axes hold independent matrices over the same
basis (every digit of a keyswitch, both parts of a ciphertext), with
the ``L`` moduli broadcast over the leading axes. A stack is one kernel
call, the way Poseidon streams every limb and digit through its lanes
at once. :func:`over_leading_axes` gives a backend written for single
matrices that capability by looping.

Two implementations ship:

- ``numpy`` (:mod:`repro.kernels.numpy_backend`), the default — fully
  vectorized uint64 butterflies (Shoup multiplication, lazy reduction,
  branch-free conditional subtracts) with a 128-bit Barrett path for
  wide moduli; each butterfly stage runs once over a whole stack.
- ``reference`` (:mod:`repro.kernels.reference`) — the original
  scalar/per-limb code paths, one numpy call per limb row; the oracle.

Backends are required to be **bit-identical**: every operator computes
an exact modular result (residues reduced into ``[0, q_i)``), so the
output of any op is uniquely defined and the differential suite in
``tests/kernels`` can assert equality element by element.
"""

from __future__ import annotations

import abc
from functools import lru_cache, wraps

import numpy as np

from repro.errors import KernelError
from repro.obs import metrics


def moduli_key(moduli) -> tuple[int, ...]:
    """``moduli`` as the int tuple the per-basis caches are keyed by.

    An int tuple (``RnsContext.moduli``) passes through unchanged, so
    the common call costs no rebuild and no duplicate cache keys.
    """
    if type(moduli) is tuple and type(moduli[0]) is int:
        return moduli
    return tuple(int(q) for q in moduli)


def check_matrix(data: np.ndarray, moduli) -> np.ndarray:
    """Validate an (L, N) matrix or (..., L, N) stack against its basis."""
    data = np.asarray(data, dtype=np.uint64)
    if data.ndim < 2:
        raise KernelError(f"expected an (L, N) matrix, got shape {data.shape}")
    if data.shape[-2] != len(moduli):
        raise KernelError(
            f"matrix has {data.shape[-2]} rows but basis has "
            f"{len(moduli)} moduli"
        )
    return data


def over_leading_axes(*, arrays: int = 1, core_ndim: int = 2):
    """Generic stack support for a kernel written for single matrices.

    The decorated method takes ``arrays`` leading array arguments whose
    last ``core_ndim`` axes are one kernel input (``(L, N)`` matrices,
    or ``(N,)`` rows for :meth:`KernelBackend.lift`). Inputs with more
    axes are broadcast against each other and the kernel runs once per
    index of the leading axes; the results are stacked back. The loop
    stays inside the public method, so a stack is still one call.
    """

    def decorate(kernel):
        @wraps(kernel)
        def stacked(self, *args, **kwargs):
            ops = [np.asarray(x, dtype=np.uint64) for x in args[:arrays]]
            if max(op.ndim for op in ops) <= core_ndim:
                return kernel(self, *args, **kwargs)
            ops = np.broadcast_arrays(*ops)
            lead = ops[0].shape[:-core_ndim]
            flat = [op.reshape((-1,) + op.shape[-core_ndim:]) for op in ops]
            rest = args[arrays:]
            out = np.stack([
                kernel(self, *items, *rest, **kwargs) for items in zip(*flat)
            ])
            return out.reshape(lead + out.shape[1:])

        return stacked

    return decorate


@lru_cache(maxsize=4096)
def _validate_moduli(name: str, max_bits: int, moduli: tuple[int, ...]) -> None:
    """Reject moduli wider than a backend's exact-arithmetic range.

    Successful validations are cached per (backend, basis); failures
    re-raise on every call (``lru_cache`` does not cache exceptions).
    """
    for q in moduli:
        bits = int(q).bit_length()
        if bits > max_bits:
            raise KernelError(
                f"{name} kernel backend supports moduli up to {max_bits} "
                f"bits; got {q} ({bits} bits)"
            )


class KernelBackend(abc.ABC):
    """Abstract kernel backend over (L, N) uint64 residue matrices.

    All inputs are assumed reduced (row ``i`` in ``[0, moduli[i])``)
    and all outputs are returned reduced — the invariant that makes
    backend outputs unique and therefore bit-comparable. The transforms,
    element-wise operators, :meth:`barrett_reduce` and :meth:`lift`
    also take ``(..., L, N)`` stacks (module docstring).
    """

    #: Registry/display name ("reference", "numpy").
    name: str = "abstract"

    #: Widest modulus (in bits) this backend's arithmetic stays exact
    #: for. Calls with wider moduli raise :class:`KernelError` up front
    #: instead of silently overflowing uint64 intermediates.
    max_modulus_bits: int = 31

    # ------------------------------------------------------------------
    # Capability / input validation
    # ------------------------------------------------------------------
    def check_moduli(self, moduli) -> None:
        """Raise :class:`KernelError` if a modulus exceeds the backend cap."""
        _validate_moduli(self.name, self.max_modulus_bits, moduli_key(moduli))

    def _check(self, data: np.ndarray, moduli) -> np.ndarray:
        """Combined matrix-shape + modulus-width validation."""
        self.check_moduli(moduli)
        return check_matrix(data, moduli)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _count(self, op: str, elements: int) -> None:
        """Per-backend op/element counters (kernels.<name>.<op>...)."""
        reg = metrics.active()
        if reg is not None:
            reg.counter(f"kernels.{self.name}.{op}.calls").inc()
            reg.counter(f"kernels.{self.name}.{op}.elements").inc(elements)

    # ------------------------------------------------------------------
    # NTT / INTT over all limbs
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ntt(self, data: np.ndarray, moduli) -> np.ndarray:
        """Forward negacyclic NTT of every limb row (natural order)."""

    @abc.abstractmethod
    def intt(self, data: np.ndarray, moduli) -> np.ndarray:
        """Inverse negacyclic NTT of every limb row (natural order)."""

    # ------------------------------------------------------------------
    # Element-wise modular operators (MA / MM)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def mod_add(self, a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
        """Row-wise ``(a + b) mod q_i``."""

    @abc.abstractmethod
    def mod_sub(self, a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
        """Row-wise ``(a - b) mod q_i``."""

    @abc.abstractmethod
    def mod_neg(self, a: np.ndarray, moduli) -> np.ndarray:
        """Row-wise ``(-a) mod q_i``."""

    @abc.abstractmethod
    def mod_mul(self, a: np.ndarray, b: np.ndarray, moduli) -> np.ndarray:
        """Row-wise ``(a * b) mod q_i`` — the MM operator."""

    @abc.abstractmethod
    def mod_scalar_mul(self, a: np.ndarray, scalars, moduli) -> np.ndarray:
        """Multiply row ``i`` by the Python-int ``scalars[i]`` mod q_i."""

    # ------------------------------------------------------------------
    # Reduction and basis plumbing (SBT / RNSconv building blocks)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def barrett_reduce(self, x: np.ndarray, moduli) -> np.ndarray:
        """Barrett-reduce row ``i`` (products ``< q_i^2``) mod ``q_i``."""

    @abc.abstractmethod
    def lift(self, row: np.ndarray, moduli) -> np.ndarray:
        """Exact lift of digit rows into every modulus: (..., N) -> (..., L, N)."""

    @abc.abstractmethod
    def basis_convert(
        self,
        y: np.ndarray,
        table: np.ndarray,
        target_moduli,
    ) -> np.ndarray:
        """The RNSconv MM+MA cascade (paper Fig. 4, Eq. 1).

        Args:
            y: (l, N) source rows, already multiplied by
               ``q_hat_j^{-1} mod q_j``.
            table: (l, k) matrix with ``table[j, i] = (Q/q_j) mod p_i``.
            target_moduli: the k target primes.

        Returns:
            (k, N) matrix ``out[i] = sum_j (y_j mod p_i) * table[j, i]
            mod p_i``.
        """

    def __repr__(self) -> str:
        return f"<KernelBackend {self.name!r}>"
