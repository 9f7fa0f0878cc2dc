"""Setuptools shim for environments without PEP 517 build isolation."""

from setuptools import find_packages, setup

setup(
    name="repro-transportation-kdd",
    version="0.6.0",
    description=(
        "Reproduction of 'Knowledge Discovery from Transportation Network Data' "
        "(ICDE 2005): FSG/SUBDUE mining over transaction graphs"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # numpy backs only the packed-bitset helpers (repro.runtime.bitsets)
    # and the EM clustering experiment; every bitset helper keeps a
    # pure-python fallback.
    install_requires=["numpy"],
)
