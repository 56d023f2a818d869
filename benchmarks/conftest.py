"""Shared fixtures for the benchmark harness.

Every figure benchmark runs the corresponding experiment once (via
``benchmark.pedantic`` — the experiments are seconds-long simulations, not
micro-benchmarks), checks the qualitative shape the paper reports, renders
the same rows/series the paper's figure plots, and writes that rendering to
``benchmarks/output/``, where the committed numbers live.
"""

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir():
    """Directory where rendered figure tables are written."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def save_rendering(output_dir):
    """Callable that writes a rendered table to benchmarks/output/<name>.txt."""

    def _save(name: str, text: str) -> pathlib.Path:
        path = output_dir / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _save
