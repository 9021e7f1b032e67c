"""The CLI's default datasets, pinned byte for byte.

``tests/data`` holds the CSV that each default invocation writes. Every
refactor must leave these bytes alone; a test regenerates each file in
process and reports the first line that differs. ``sweep --scheme psk`` is
left out: at its defaults it refuses a numerically singular Gram matrix.
The bytes do not depend on the OpenBLAS kernel: a child process per
kernel, with ``OPENBLAS_CORETYPE`` set for it alone, writes every file
again and compares it with the pinned copy.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srmlab.cli import EXIT_OK, main

TESTS = Path(__file__).resolve().parent
DATA = TESTS / "data"

DEFAULT_DATASETS = {
    "fig1": ["fig1"],
    "fig2": ["fig2"],
    "fig3": ["fig3"],
    "fig4": ["fig4"],
    "fig5": ["fig5"],
    "sweep_ppm": ["sweep", "--scheme", "ppm"],
    "sweep_double_ppm": ["sweep", "--scheme", "double_ppm"],
    "sweep_double_bpsk": ["sweep", "--scheme", "double_bpsk"],
}


@pytest.mark.parametrize("name", sorted(DEFAULT_DATASETS))
def test_default_dataset_is_unchanged(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main([*DEFAULT_DATASETS[name], "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    got = out.read_bytes().splitlines(keepends=True)
    want = (DATA / f"{name}.csv").read_bytes().splitlines(keepends=True)
    for lineno, (line, pinned) in enumerate(zip(got, want), start=1):
        assert line == pinned, f"{name}.csv line {lineno}: got {line!r}, pinned {pinned!r}"
    assert len(got) == len(want), f"{name}.csv has {len(got)} lines, pinned {len(want)}"


def test_every_pinned_file_is_a_default_dataset():
    assert sorted(p.stem for p in DATA.glob("*.csv")) == sorted(DEFAULT_DATASETS)


# each OpenBLAS kernel, and the /proc/cpuinfo flag of the instructions it needs
KERNELS = {"Haswell": "avx2", "Sandybridge": "avx", "Nehalem": "sse4_2"}

# writes every default dataset in process and prints the name of each that
# differs from its pinned copy
REGENERATE = """
import sys
from pathlib import Path
from srmlab.cli import main
from test_datasets import DATA, DEFAULT_DATASETS
for name, argv in DEFAULT_DATASETS.items():
    out = Path(sys.argv[1]) / f"{name}.csv"
    if main([*argv, "--out", str(out)]) != 0 or out.read_bytes() != (DATA / out.name).read_bytes():
        print(name)
"""


def cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags") for flag in line.split()[2:]}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_datasets_do_not_depend_on_the_blas_kernel(kernel, tmp_path):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pytest.skip("numpy does not report the BLAS it is built on")
    if "openblas" not in blas:
        pytest.skip(f"numpy is built on {blas}, not OpenBLAS")
    if platform.machine().lower() not in ("x86_64", "amd64") or KERNELS[kernel] not in cpu_flags():
        pytest.skip(f"this CPU cannot run the {kernel} kernel")
    paths = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    child = subprocess.run(
        [sys.executable, "-c", REGENERATE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []
