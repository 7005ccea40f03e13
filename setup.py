"""Setup shim so editable installs work without the `wheel` package.

This file enables the legacy `pip install -e .` code path on environments
whose setuptools cannot build PEP 660 editable wheels, declares the
optional extra of the native replay engine, and lists the
package tree (``repro`` is a namespace package, so discovery must be
explicit) including the :mod:`repro.analysis` static checker and its
``repro-lint`` console entry point.

The package has no third-party runtime dependency: the scalar engine
(and therefore the whole tier-1 suite) runs on a bare Python toolchain,
and the native engine needs only a host C toolchain.  That contract is
statically enforced by reprolint's ``optional-deps`` rule
(``python -m repro.analysis``), under which no module may import numpy
unguarded.
"""
from setuptools import find_namespace_packages, setup

setup(
    # ``repro`` has no __init__.py (namespace package), so the default
    # find_packages() would discover nothing; enumerate the namespace.
    packages=find_namespace_packages(where="src", include=["repro", "repro.*"]),
    package_dir={"": "src"},
    entry_points={
        "console_scripts": [
            # The reprolint CLI: strict over src/, advisory over
            # benchmarks/ and examples/ (same as python -m repro.analysis).
            "repro-lint = repro.analysis.cli:main",
            # The experiment-service daemon (same as python -m
            # repro.service <cache_dir>; see docs/service.md).
            "repro-service = repro.service.__main__:main",
        ],
    },
    extras_require={
        # The native replay kernel (engine="native",
        # REPRO_REPLAY_KERNEL=native) compiles its per-cycle loop as a C
        # extension, lazily, on first use.  Its dependency is a host
        # *toolchain* (a C compiler plus the Python development
        # headers), not a Python package, so the extra is an empty
        # marker: installing it documents intent, and hosts without the
        # toolchain get a NativeUnavailableError naming this extra only
        # when the native kernel is explicitly selected; unselected, they
        # fall back to scalar (see ``repro.uarch.engine.native``).
        "native": [],
    },
)
