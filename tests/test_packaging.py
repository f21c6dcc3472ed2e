"""The sdist builds from pyproject.toml alone and ships the data files."""

import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_sdist_from_pyproject_alone(tmp_path):
    pytest.importorskip("setuptools")
    shutil.copytree(
        ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()", "sdist"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (tarball,) = (tmp_path / "dist").glob("pathabs-*.tar.gz")
    with tarfile.open(tarball) as tar:
        names = {name.split("/", 1)[1] for name in tar.getnames() if "/" in name}
    for required in ("_kernels.py", "data/fidi.edges", "data/fidi.labels", "data/handoff.csv"):
        assert f"src/pathabs/{required}" in names
    assert not [name for name in names if name.endswith((".pyx", ".c"))]
    assert "setup.py" not in names


def test_declared_setuptools_floor_is_installable():
    setuptools = pytest.importorskip("setuptools")
    floor = re.search(r'"setuptools>=([\d.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    installed = re.match(r"[\d.]*\d", setuptools.__version__).group(0)
    assert [int(x) for x in floor.split(".")] <= [int(x) for x in installed.split(".")]
