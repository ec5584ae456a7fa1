from setuptools import find_packages, setup

# The compiled wave kernel (repro.core.native) is optional: installed
# builds with cffi available get the API-mode extension compiled here;
# everyone else (source checkouts, cffi-less hosts) falls back to the
# lazy first-import gcc build or to the pure-numpy engine.
cffi_kwargs = {}
try:
    import cffi  # noqa: F401

    cffi_kwargs = {
        "cffi_modules": ["src/repro/core/native/_build.py:ffibuilder"],
        "setup_requires": ["cffi"],
    }
except ImportError:
    pass

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Adaptive Massively Parallel Coloring in Sparse Graphs (PODC 2024) "
        "- full reproduction: AMPC/MPC simulators, beta-partitions, "
        "sublinear LCA, arboricity-dependent coloring"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={
        "repro.core.native": ["_wave_kernel.c"],
    },
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "dev": ["pytest", "pytest-benchmark", "hypothesis"],
        "native": ["cffi"],
    },
    **cffi_kwargs,
)
