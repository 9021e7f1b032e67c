"""The CLI's default datasets, pinned byte for byte.

``tests/data`` holds the CSV that each default invocation writes. Every
refactor must leave these bytes alone; a test regenerates each file in
process and reports the first line that differs. ``sweep --scheme psk`` is
left out: at its defaults it refuses a numerically singular Gram matrix.
"""

from pathlib import Path

import pytest

from srmlab.cli import EXIT_OK, main

DATA = Path(__file__).resolve().parent / "data"

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
