"""Golden regression tests: the committed figure numbers must reproduce.

``benchmarks/output/fig{6,8,9,10,11}.txt`` hold the rendered tables of the
paper-reproduction figures at their committed configurations and seeds.
These tests re-run (cheap slices of) the same configurations and compare
against the numbers parsed from the committed files, so a backend rewiring
or kernel change cannot silently drift the reproduction.  Tolerances are
tight — the runs are seed-stable, so only float-rounding in the rendered
tables (3 decimals) and platform arithmetic differences are absorbed.

Each re-run calls the figure module's spec (``FIG8`` …), as the benchmark
that wrote the file does; slices work because every variant runs alone:
``run_fig8(FIG8, lambdas=(0.0, 0.1))`` reproduces exactly two columns of
the table, and a ``max_hours``-truncated Figure 11 the early hours.
"""

import pathlib
import re

import pytest

from repro.experiments.fig6_counter_cdf import FIG6, run_fig6
from repro.experiments.fig8_uncorrelated import FIG8, run_fig8
from repro.experiments.fig9_counting_failure import FIG9, run_fig9
from repro.experiments.fig10_correlated import FIG10, run_fig10
from repro.experiments.fig11_traces import FIG11, run_fig11

OUTPUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "output"

#: Rendered tables round to 3 decimals; allow that plus a little platform slack.
TOL = dict(rel=0.02, abs=6e-3)


def _load(name: str) -> str:
    path = OUTPUT_DIR / f"{name}.txt"
    if not path.exists():  # pragma: no cover - broken checkout only
        pytest.skip(f"committed figure output {path} is missing")
    return path.read_text()


def _parse_table(block: str):
    """Parse one rendered series table into {row key: {column: value}}."""
    lines = [line for line in block.splitlines() if "|" in line]
    lines = [line for line in lines if set(line.replace("|", "").strip()) != {"-"}]
    header = [cell.strip() for cell in lines[0].split("|")]
    rows = {}
    for line in lines[1:]:
        cells = [cell.strip() for cell in line.split("|")]
        try:
            values = {
                column: float(cell)
                for column, cell in zip(header[1:], cells[1:])
                if cell != ""
            }
        except ValueError:  # a second embedded header row — stop at it
            break
        rows[cells[0]] = values
    return header, rows


class TestFig8Golden:
    """fig8.txt: ``FIG8`` (uncorrelated half failure)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return _parse_table(_load("fig8"))[1]

    @pytest.fixture(scope="class")
    def rerun(self):
        return run_fig8(FIG8, lambdas=(0.0, 0.1))

    @pytest.mark.parametrize("reversion", [0.0, 0.1])
    def test_error_series_match(self, golden, rerun, reversion):
        column = f"lambda={reversion:g}"
        for round_label, row in golden.items():
            expected = row[column]
            actual = rerun.errors[reversion][int(round_label) - 1]
            assert actual == pytest.approx(expected, **TOL), (
                f"fig8 {column} drifted at round {round_label}"
            )

    def test_headline_numbers(self, rerun):
        # Uncorrelated failures are harmless: the static protocol ends converged.
        assert rerun.final_error(0.0) < 2.0
        assert 5.0 < rerun.final_error(0.1) < 8.0


class TestFig9Golden:
    """fig9.txt: ``FIG9`` (every host holding 1, half removed)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return _parse_table(_load("fig9"))[1]

    @pytest.fixture(scope="class")
    def rerun(self):
        return run_fig9(FIG9)

    def test_series_match(self, golden, rerun):
        series = {
            "propagation limiting on": rerun.limited_errors,
            "propagation limiting off": rerun.naive_errors,
            "correct sum": rerun.truths,
        }
        for round_label, row in golden.items():
            index = int(round_label) - 1
            for column, values in series.items():
                assert values[index] == pytest.approx(row[column], **TOL), (
                    f"fig9 {column!r} drifted at round {round_label}"
                )

    def test_headline_numbers(self, rerun):
        # The naive sketch stays stuck near the removed population; the
        # cutoff-limited sketch recovers to the survivors within ~10 rounds.
        assert rerun.naive_final_error() == pytest.approx(2050.3, rel=0.05)
        assert rerun.limited_final_error() < 500.0
        assert rerun.recovery_rounds(500.0) is not None


class TestFig10Golden:
    """fig10.txt: ``FIG10`` (highest-valued half removed)."""

    @pytest.fixture(scope="class")
    def golden(self):
        text = _load("fig10")
        panel_a, panel_b = text.split("Figure 10(b)")
        return _parse_table(panel_a)[1], _parse_table(panel_b)[1]

    @pytest.fixture(scope="class")
    def rerun(self):
        return run_fig10(FIG10, lambdas=(0.0, 0.1))

    @pytest.mark.parametrize("reversion", [0.0, 0.1])
    def test_basic_panel_matches(self, golden, rerun, reversion):
        panel_a, _panel_b = golden
        column = f"lambda={reversion:g}"
        for round_label, row in panel_a.items():
            actual = rerun.basic_errors[reversion][int(round_label) - 1]
            assert actual == pytest.approx(row[column], **TOL), (
                f"fig10(a) {column} drifted at round {round_label}"
            )

    @pytest.mark.parametrize("reversion", [0.0, 0.1])
    def test_full_transfer_panel_matches(self, golden, rerun, reversion):
        _panel_a, panel_b = golden
        column = f"lambda={reversion:g}"
        for round_label, row in panel_b.items():
            actual = rerun.full_transfer_errors[reversion][int(round_label) - 1]
            assert actual == pytest.approx(row[column], **TOL), (
                f"fig10(b) {column} drifted at round {round_label}"
            )

    def test_headline_numbers(self, rerun):
        # Static push-sum never recovers (error ~= the 25-unit truth shift);
        # reversion recovers, and Full-Transfer ends with the lower plateau.
        assert rerun.plateau(0.0) == pytest.approx(25.1, rel=0.05)
        assert rerun.plateau(0.1) < 7.0
        assert rerun.plateau(0.1, full_transfer=True) < rerun.plateau(0.1)


class TestFig6Golden:
    """fig6.txt: ``FIG6``'s converged sketches; the 1000-host block and its fit."""

    @pytest.fixture(scope="class")
    def rerun(self):
        return run_fig6(FIG6, sizes=(1000,))

    @pytest.fixture(scope="class")
    def golden_block(self):
        text = _load("fig6")
        blocks = [
            block for block in text.split("\n\n")
            if block.lstrip().startswith("1000 hosts")
            or "\n1000 hosts " in block
        ]
        assert blocks, "fig6.txt lost its 1000-host block"
        return _parse_table(blocks[0])[1]

    def test_low_bit_cdfs_match(self, rerun, golden_block):
        points = list(range(13))
        for bit in (0, 1, 2, 3):
            cdf = rerun.cdf(1000, bit, points)
            row = golden_block[f"bit {bit}"]
            for point in points:
                assert cdf[point] == pytest.approx(row[f"<= {point}"], rel=0.02, abs=0.01), (
                    f"fig6 bit-{bit} CDF drifted at counter {point}"
                )

    def test_fitted_bound_matches(self, rerun):
        golden_fits = re.search(
            r"^1000 hosts\s*\|\s*([\d.]+)\s*\|\s*([\d.]+)\s*$",
            _load("fig6"),
            re.MULTILINE,
        )
        assert golden_fits, "fig6.txt lost its fitted-bound row"
        intercept, slope = float(golden_fits.group(1)), float(golden_fits.group(2))
        fit = rerun.fits[1000]
        assert fit.intercept == pytest.approx(intercept, rel=0.02, abs=0.02)
        assert fit.slope == pytest.approx(slope, rel=0.05, abs=0.01)


class TestFig11Golden:
    """fig11.txt: dataset-1 trace replay; a truncated re-run pins the early hours."""

    MAX_HOURS = 4.0

    @pytest.fixture(scope="class")
    def golden(self):
        text = _load("fig11")
        sections = text.split("\n\n")
        average = next(s for s in sections if "dynamic average" in s and "dataset 1" in s)
        size = next(s for s in sections if "dynamic size" in s and "dataset 1" in s)
        return _parse_table(average)[1], _parse_table(size)[1]

    @pytest.fixture(scope="class")
    def rerun(self):
        # A truncated replay shares the committed run's round prefix.
        return run_fig11(FIG11, datasets=(1,), max_hours=self.MAX_HOURS)

    def test_average_panel_early_hours_match(self, golden, rerun):
        average, _size = golden
        data = rerun.datasets[1]
        for hour_label, row in average.items():
            hour = int(hour_label)
            if hour >= self.MAX_HOURS:
                continue
            for label in ("lambda=0", "lambda=0.001", "lambda=0.01"):
                actual = data.average_errors[label][hour]
                assert actual == pytest.approx(row[label], rel=0.02, abs=1e-6), (
                    f"fig11 {label} drifted at hour {hour}"
                )
            assert data.group_size[hour] == pytest.approx(
                row["avg group size"], rel=0.02, abs=1e-6
            )

    def test_size_panel_early_hours_match(self, golden, rerun):
        _average, size = golden
        data = rerun.datasets[1]
        for hour_label, row in size.items():
            hour = int(hour_label)
            if hour >= self.MAX_HOURS:
                continue
            for label in ("reversion off", "reversion on", "reversion slow"):
                actual = data.size_errors[label][hour]
                assert actual == pytest.approx(row[label], rel=0.02, abs=1e-6), (
                    f"fig11 {label!r} drifted at hour {hour}"
                )
