"""Package metadata for ``repro`` (numpy is the only runtime dependency).

Offline, with setuptools but without the ``wheel`` package, the
development install that works is::

    python setup.py develop --no-deps

(into a virtual environment created with ``--system-site-packages`` so
it sees the installed numpy).  ``pip install -e .`` needs ``wheel``
whichever build path it takes.  Without any install, every entry point
runs from the repository root with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # keep equal to repro.__version__
    description=(
        "Carbon-aware approximate DNN accelerator design-space "
        "exploration (DATE 2025 LBR reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
