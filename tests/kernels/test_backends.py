"""Backend registry, selection precedence and scoping semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.errors import KernelError, ReproError


@pytest.fixture()
def clean_selection():
    """Snapshot and restore the process-wide backend selection."""
    previous = kernels._active
    yield
    kernels._active = previous


def test_registry_contents():
    assert kernels.available_backends() == ("batched", "numpy", "reference")
    assert kernels.DEFAULT_BACKEND == "numpy"
    for name in kernels.available_backends():
        backend = kernels.resolve(name)
        assert isinstance(backend, kernels.KernelBackend)
        assert backend.name == name
        # The registry hands out singletons, not fresh instances.
        assert kernels.resolve(name) is backend
    # The retired limb-vectorized backend's name runs the numpy engine.
    assert isinstance(kernels.resolve("batched"), kernels.NumpyBackend)


def test_backend_capability_attributes():
    """Every backend declares the modulus width its arithmetic is exact for."""
    assert kernels.resolve("reference").max_modulus_bits == 31
    assert kernels.resolve("numpy").max_modulus_bits == 62


def test_wide_moduli_rejected_by_narrow_backends():
    data = np.zeros((1, 8), dtype=np.uint64)
    wide = ((1 << 61) + 1,)  # width 62: beyond the 31-bit reference
    with pytest.raises(KernelError, match="moduli up to 31 bits"):
        kernels.resolve("reference").ntt(data, wide)


def test_resolve_unknown_name_raises_kernel_error():
    with pytest.raises(KernelError, match="unknown kernel backend"):
        kernels.resolve("simd512")
    # KernelError sits in the repo exception tree and is a ValueError.
    assert issubclass(KernelError, ReproError)
    assert issubclass(KernelError, ValueError)


def test_resolve_passthrough_and_none(clean_selection):
    backend = kernels.resolve("reference")
    assert kernels.resolve(backend) is backend
    kernels.set_backend("reference")
    assert kernels.resolve(None) is backend


def test_env_var_consulted_on_first_use(clean_selection, monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "reference")
    kernels._active = None  # simulate a fresh process
    assert kernels.get_backend().name == "reference"
    # Read once: later env changes do not affect the selection.
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
    assert kernels.get_backend().name == "reference"


def test_env_var_invalid_name_raises(clean_selection, monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "fpga")
    kernels.reset_selection()
    with pytest.raises(KernelError, match="names no kernel backend"):
        kernels.get_backend()


def test_env_var_invalid_name_lists_valid_backends(clean_selection, monkeypatch):
    """The first-use error names every registered backend, not a KeyError."""
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "fpga")
    kernels.reset_selection()
    with pytest.raises(KernelError) as excinfo:
        kernels.get_backend()
    message = str(excinfo.value)
    for name in kernels.available_backends():
        assert name in message


def test_reset_selection_rereads_environment(clean_selection, monkeypatch):
    """reset_selection() drops the read-once cache (public test hook)."""
    monkeypatch.delenv(kernels.BACKEND_ENV_VAR, raising=False)
    kernels.reset_selection()
    assert kernels.get_backend().name == kernels.DEFAULT_BACKEND
    # A later env change is invisible until the cache is reset...
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
    assert kernels.get_backend().name == kernels.DEFAULT_BACKEND
    # ...and picked up right after.
    kernels.reset_selection()
    assert kernels.get_backend().name == "numpy"


def test_set_backend_overrides_env(clean_selection, monkeypatch):
    monkeypatch.setenv(kernels.BACKEND_ENV_VAR, "numpy")
    kernels._active = None
    kernels.set_backend("reference")
    assert kernels.get_backend().name == "reference"


def test_use_backend_scoping(clean_selection):
    kernels.set_backend("numpy")
    with kernels.use_backend("reference") as active:
        assert active.name == "reference"
        assert kernels.get_backend().name == "reference"
        # Nested scopes restore in LIFO order.
        with kernels.use_backend("numpy"):
            assert kernels.get_backend().name == "numpy"
        assert kernels.get_backend().name == "reference"
    assert kernels.get_backend().name == "numpy"


def test_use_backend_restores_on_exception(clean_selection):
    kernels.set_backend("numpy")
    with pytest.raises(RuntimeError):
        with kernels.use_backend("reference"):
            raise RuntimeError("boom")
    assert kernels.get_backend().name == "numpy"


def test_use_backend_none_is_a_no_op(clean_selection):
    kernels.set_backend("reference")
    with kernels.use_backend(None) as active:
        assert active.name == "reference"
    assert kernels.get_backend().name == "reference"


def test_evaluator_accepts_backend_and_rejects_unknown():
    from repro.ckks import CkksEvaluator, CkksParameters, KeyChain

    params = CkksParameters.default(degree=16, levels=2)
    keys = KeyChain.generate(params, seed=3)
    CkksEvaluator(params, keys, kernel_backend="reference")
    with pytest.raises(KernelError):
        CkksEvaluator(params, keys, kernel_backend="gpu")


def test_backend_counters_emitted():
    """Each backend op emits kernels.<name>.<group> calls/elements."""
    from repro.obs import collecting

    data = np.arange(8, dtype=np.uint64).reshape(1, 8)
    moduli = (97,)
    for name in kernels.available_backends():
        backend = kernels.resolve(name)
        with collecting() as registry:
            backend.mod_add(data, data, moduli)
            backend.ntt(data, moduli)
        snap = registry.snapshot()
        assert snap[f"kernels.{name}.elementwise.calls"] == 1
        assert snap[f"kernels.{name}.elementwise.elements"] == 8
        assert snap[f"kernels.{name}.ntt.calls"] == 1
        assert snap[f"kernels.{name}.ntt.elements"] == 8


def test_cli_exposes_kernel_backend_flag(capsys):
    from repro.cli import build_parser

    args = build_parser().parse_args(["table2", "--kernel-backend", "reference"])
    assert args.kernel_backend == "reference"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["table2", "--kernel-backend", "nope"])
    capsys.readouterr()
