"""Package metadata for the ACC Saturator reproduction.

``pip install -e .`` installs the ``repro`` package from ``src/`` (the CLI
is ``python -m repro.cli``).  numpy is a hard requirement: the kernel
interpreter (``repro.interp``) and the GPU model's metrics
(``repro.gpusim.metrics``) import it unconditionally.  scipy is needed only
by the ILP extractor, which imports it on first use.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
