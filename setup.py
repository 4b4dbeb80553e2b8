"""Legacy setup shim.

Kept so that ``pip install -e .`` works in offline environments whose
setuptools lacks PEP 660 editable-wheel support; all metadata lives in
pyproject.toml.
"""

from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=2.0", "scipy>=1.10"],
)
