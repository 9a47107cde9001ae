"""Kernel selection contract."""

import pytest

from repro.errors import MPCConfigError
from repro.mpc.config import MPCConfig
from repro.mpc.state_layout import (
    KERNEL_ENV,
    KERNEL_NUMPY,
    KERNEL_PYTHON,
    MAX_VECTOR_MODULUS,
    NO_NUMPY_ENV,
    kernel_of,
    numpy_available,
    numpy_or_none,
    resolve_kernel,
    supports_modulus,
)

if not numpy_available():
    pytest.skip(
        "numpy kernel unavailable (missing or REPRO_NO_NUMPY)",
        allow_module_level=True,
    )


class TestResolution:
    def test_default_is_python(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel(None) == KERNEL_PYTHON

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, KERNEL_NUMPY)
        assert resolve_kernel(KERNEL_PYTHON) == KERNEL_PYTHON

    def test_env_consulted_when_unset(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, KERNEL_NUMPY)
        assert resolve_kernel(None) == KERNEL_NUMPY

    def test_unknown_name_raises(self):
        with pytest.raises(MPCConfigError, match="unknown kernel"):
            resolve_kernel("cuda")

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "fortran")
        with pytest.raises(MPCConfigError, match="unknown kernel"):
            resolve_kernel(None)

    def test_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
        assert not numpy_available()
        assert numpy_or_none() is None
        with pytest.raises(MPCConfigError, match="NumPy is not importable"):
            resolve_kernel(KERNEL_NUMPY)
        monkeypatch.setenv(KERNEL_ENV, KERNEL_NUMPY)
        with pytest.raises(MPCConfigError, match="NumPy is not importable"):
            resolve_kernel(None)
        assert resolve_kernel(KERNEL_PYTHON) == KERNEL_PYTHON

    def test_kernel_of_reads_config(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        cfg = MPCConfig(num_machines=2, memory_words=1024, kernel="numpy")

        class FakeSim:
            config = cfg

        assert kernel_of(FakeSim()) == KERNEL_NUMPY
        assert kernel_of(
            type("S", (), {"config": cfg.with_kernel(None)})()
        ) == KERNEL_PYTHON

    def test_config_rejects_unknown_kernel(self):
        with pytest.raises(MPCConfigError, match="unknown kernel"):
            MPCConfig(num_machines=2, memory_words=1024, kernel="gpu")

    def test_supports_modulus_bounds(self):
        assert supports_modulus(2)
        assert supports_modulus(MAX_VECTOR_MODULUS)
        assert not supports_modulus(MAX_VECTOR_MODULUS + 1)
        assert not supports_modulus(1)
