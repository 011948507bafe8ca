"""Setup shim.

The execution environment has setuptools but no ``wheel`` package and no
network access, so PEP-517 editable installs (which need ``bdist_wheel``)
fail.  This shim lets ``pip install -e . --no-use-pep517`` (or plain
``pip install -e .`` on environments with wheel) work everywhere.
There is no install metadata: ``setup()`` runs on setuptools' defaults,
whose automatic discovery finds the ``src/`` layout, and
``pyproject.toml`` holds tool configuration only (it has no
``[project]`` table).
"""

from setuptools import setup

setup()
