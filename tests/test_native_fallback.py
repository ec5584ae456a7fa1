"""Graceful degradation of the compiled engine.

``engine="compiled"`` is the default engine but must never be
load-bearing: when the kernel cannot load, dispatch (explicit or
default) downgrades to the bit-identical ``"batched"``
engine with a one-time warning, ``REPRO_NATIVE_DISABLE=1`` forces the
same downgrade, and a corrupt shared object in the build cache only
flips ``native.available()`` to False — ``import repro`` keeps working.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core import native
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import random_gnm
from repro.lca.partial_partition_lca import PartialPartitionLCA

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestWarnedFallback:
    def test_partition_falls_back_to_batched(self, monkeypatch):
        g = random_gnm(90, 180, seed=3)
        reference = beta_partition_ampc(g, 9, store="columnar",
                                        engine="batched")
        monkeypatch.setattr(native, "available", lambda: False)
        monkeypatch.setattr(native, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            degraded = beta_partition_ampc(
                g, 9, store="columnar", engine="compiled"
            )
        # The outcome reports the engine that actually ran, and every
        # observable matches the batched run bit for bit.
        assert degraded.engine == "batched"
        assert degraded.partition.layers == reference.partition.layers
        assert degraded.rounds == reference.rounds
        assert degraded.unlayered_per_round == reference.unlayered_per_round

    def test_warning_fires_once(self, monkeypatch):
        g = random_gnm(40, 80, seed=1)
        monkeypatch.setattr(native, "available", lambda: False)
        monkeypatch.setattr(native, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning):
            beta_partition_ampc(g, 9, store="columnar", engine="compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            again = beta_partition_ampc(
                g, 9, store="columnar", engine="compiled"
            )
        assert again.engine == "batched"

    def test_lca_falls_back_too(self, monkeypatch):
        g = random_gnm(60, 120, seed=2)
        monkeypatch.setattr(native, "available", lambda: False)
        monkeypatch.setattr(native, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning, match="PartialPartitionLCA"):
            lca = PartialPartitionLCA(g, x=49, beta=6, engine="compiled")
        assert lca.engine == "batched"
        reference = PartialPartitionLCA(g, x=49, beta=6, engine="batched")
        merged, _ = lca.query_all()
        merged_ref, _ = reference.query_all()
        assert merged.layers == merged_ref.layers

    def test_explicit_batched_never_warns(self):
        g = random_gnm(40, 80, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = beta_partition_ampc(g, 9, store="columnar",
                                      engine="batched")
        assert out.engine == "batched"


def _run_script(script: str, **env_overrides) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_NATIVE_DISABLE", None)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )


class TestDefaultEngine:
    def test_default_is_compiled_when_the_kernel_loads(self):
        script = (
            "import warnings\n"
            "warnings.simplefilter('error')\n"
            "from repro.core import native\n"
            "assert native.available(), native.load_error()\n"
            "from repro.core.beta_partition_ampc import beta_partition_ampc\n"
            "from repro.graphs.generators import random_gnm\n"
            "from repro.lca.partial_partition_lca import PartialPartitionLCA\n"
            "g = random_gnm(60, 120, seed=2)\n"
            "assert beta_partition_ampc(g, 9, workers=1).engine == 'compiled'\n"
            "assert PartialPartitionLCA(g, x=49, beta=6).engine == 'compiled'\n"
            "print('DEFAULT_COMPILED_OK')\n"
        )
        result = _run_script(script)
        assert result.returncode == 0, result.stderr
        assert "DEFAULT_COMPILED_OK" in result.stdout

    def test_default_is_warned_batched_when_disabled(self):
        script = (
            "import warnings\n"
            "from repro.core.beta_partition_ampc import beta_partition_ampc\n"
            "from repro.graphs.generators import random_gnm\n"
            "from repro.lca.partial_partition_lca import PartialPartitionLCA\n"
            "g = random_gnm(60, 120, seed=2)\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    out = beta_partition_ampc(g, 9, workers=1)\n"
            "assert out.engine == 'batched'\n"
            "assert any('falling back' in str(w.message) for w in caught)\n"
            "assert PartialPartitionLCA(g, x=49, beta=6).engine == 'batched'\n"
            "print('DEFAULT_BATCHED_OK')\n"
        )
        result = _run_script(script, REPRO_NATIVE_DISABLE="1")
        assert result.returncode == 0, result.stderr
        assert "DEFAULT_BATCHED_OK" in result.stdout


class TestLoaderRobustness:
    def test_corrupt_shared_object_does_not_break_import(self, tmp_path):
        # Pre-seed the build cache with garbage at the exact path the
        # lazy builder would use: dlopen fails, available() goes False,
        # and `import repro` (plus a batched run) still works.
        script = (
            "from repro.core.native import _build\n"
            "p = _build.so_path()\n"
            "p.parent.mkdir(parents=True, exist_ok=True)\n"
            "p.write_bytes(b'not a shared object')\n"
            "import repro\n"
            "from repro.core import native\n"
            "assert native.available() is False\n"
            "assert native.load_error() is not None\n"
            "from repro.core.beta_partition_ampc import beta_partition_ampc\n"
            "from repro.graphs.generators import path_graph\n"
            "out = beta_partition_ampc(path_graph(8), 1, x=2,"
            " store='columnar', engine='compiled')\n"
            "assert out.engine == 'batched'\n"
            "print('FALLBACK_OK')\n"
        )
        env = dict(
            os.environ, PYTHONPATH=SRC,
            REPRO_NATIVE_CACHE=str(tmp_path),
        )
        env.pop("REPRO_NATIVE_DISABLE", None)
        result = subprocess.run(
            [sys.executable, "-W", "ignore::RuntimeWarning", "-c", script],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "FALLBACK_OK" in result.stdout

    def test_disable_env_gates_availability(self):
        script = (
            "from repro.core import native\n"
            "assert native.available() is False\n"
            "assert 'REPRO_NATIVE_DISABLE' in repr(native.load_error())\n"
            "print('DISABLED_OK')\n"
        )
        env = dict(
            os.environ, PYTHONPATH=SRC, REPRO_NATIVE_DISABLE="1",
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "DISABLED_OK" in result.stdout

    def test_missing_cache_dir_rebuilds(self, tmp_path):
        # A fresh (empty) cache directory: the lazy gcc build kicks in
        # and the kernel loads.
        script = (
            "from repro.core import native\n"
            "assert native.available() is True\n"
            "import numpy as np\n"
            "from repro.graphs.generators import path_graph\n"
            "offsets, targets = path_graph(6).csr()\n"
            "info = native.play_games_compiled(offsets, targets,"
            " np.arange(6, dtype=np.int64), x=4, beta=2, clip=1,"
            " horizon=12, scale=12, out_layer=np.full(6, float('inf')),"
            " out_count=np.zeros(6, dtype=np.int64))\n"
            "assert info.reads.size == 6\n"
            "print('REBUILD_OK')\n"
        )
        env = dict(
            os.environ, PYTHONPATH=SRC,
            REPRO_NATIVE_CACHE=str(tmp_path / "fresh"),
        )
        env.pop("REPRO_NATIVE_DISABLE", None)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "REBUILD_OK" in result.stdout

    def test_sanitize_env_builds_a_separate_object(
        self, monkeypatch, tmp_path
    ):
        # REPRO_NATIVE_SANITIZE swaps -O2 for the ASan/UBSan flags, and
        # the flags are part of the cache key, so a sanitized object
        # never shadows a plain one (or the other way round).
        from repro.core.native import _build

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        plain = _build.so_path()
        assert _build.compile_flags() == ("-O2",)
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "1")
        sanitized = _build.so_path()
        assert sanitized != plain and sanitized.parent == plain.parent
        commands = []
        monkeypatch.setattr(
            _build.subprocess, "run",
            lambda argv, **kwargs: commands.append(argv),
        )
        _build._build_shared_object(sanitized)
        assert commands[0][0] == "gcc"
        assert tuple(commands[0][1:5]) == _build.SANITIZE_FLAGS
