from setuptools import find_packages, setup

# The compiled wave kernel (repro.core.native) is optional and is not
# built here: the package ships its C source, and the first use compiles
# it with one gcc call into a per-user cache (repro.core.native._build);
# hosts without gcc or cffi run the pure-numpy engine.

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
)
