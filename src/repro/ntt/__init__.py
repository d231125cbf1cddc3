"""Number Theoretic Transform substrate.

The NTT is the most expensive Poseidon operator. This subpackage holds:

- :mod:`repro.ntt.reference` — O(n^2) evaluation-at-roots reference.
- :mod:`repro.ntt.radix2` — iterative Cooley-Tukey / Gentleman-Sande,
  the per-limb kernels of the ``reference`` backend.
- :mod:`repro.ntt.fusion` — the paper's radix-2^k "NTT-fusion": the
  bit-exact :class:`FusedNtt` (Table II/III artifact, checked against
  radix-2 and a big-int oracle), its operation-count cost model
  (Table II) and BRAM access pattern (Table III / Fig. 5). Fusion is a
  hardware trade, so the kernel backends do not take a radix; the
  performance plane models it through ``HardwareConfig.ntt_radix_log2``.
- :mod:`repro.ntt.negacyclic` — transforms of RNS polynomials and
  ``(..., L, N)`` residue stacks over R = Z_q[x]/(x^n+1) on the active
  kernel backend; the only source of the ``ntt.*`` counters.
- :mod:`repro.ntt.tables` — per-(q, n) twiddle caches.
"""

from repro.ntt.negacyclic import intt_negacyclic, ntt_negacyclic
from repro.ntt.radix2 import intt_radix2, ntt_radix2
from repro.ntt.fusion import FusionCostModel, FusedNtt
from repro.ntt.tables import TwiddleTable, get_twiddle_table

__all__ = [
    "FusedNtt",
    "FusionCostModel",
    "TwiddleTable",
    "get_twiddle_table",
    "intt_negacyclic",
    "intt_radix2",
    "ntt_negacyclic",
    "ntt_radix2",
]
