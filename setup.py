"""Packaging for the ``repro`` library (src layout: the package lives in
``src/repro``).

Install for development with ``pip install -e .``; the test suite also runs
without installing, via ``PYTHONPATH=src python -m pytest``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=("A Python reproduction of the Hydro stack from "
                 "'New Directions in Cloud Programming' (CIDR 2021)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
