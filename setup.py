"""Legacy setup shim.

All project metadata lives in ``pyproject.toml``; this file exists only so
``pip install -e .`` works in offline environments whose setuptools cannot
run PEP 660 editable builds (no ``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Towards Perpetual Sensor Networks via Deploying "
        "Multiple Mobile Wireless Chargers' (ICPP 2014)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.9"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
