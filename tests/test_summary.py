"""Tests for the results summariser."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.summary import summarize_results


def write(path: Path, name: str, payload: dict) -> None:
    (path / f"{name}.json").write_text(json.dumps(payload))


@pytest.fixture
def results(tmp_path) -> Path:
    write(
        tmp_path,
        "table2",
        {
            "raw": {
                "NY": {
                    "batch_size": 20,
                    "batch": {
                        "DHL+": 0.002, "IncH2H+": 0.008,
                        "DHL-": 0.001, "IncH2H-": 0.004,
                    },
                    "single": {
                        "DHL+": 1e-4, "IncH2H+": 4e-4,
                        "DHL-": 1e-4, "IncH2H-": 3e-4,
                    },
                }
            }
        },
    )
    write(
        tmp_path,
        "table3",
        {
            "raw": {
                "NY": {
                    "query_us": {"DHL": 2.0, "IncH2H": 5.0},
                    "label_bytes": {"DHL": 100, "IncH2H": 800},
                    "shortcut_bytes": {"DHL": 50, "IncH2H": 150},
                    "construction_s": {"DHL": 1.0, "IncH2H": 2.0},
                    "affected_labels": {"DHL": [5, 100], "IncH2H": [40, 800]},
                    "height": {"DHL": 10, "IncH2H": 20},
                }
            }
        },
    )
    write(
        tmp_path,
        "verify",
        {
            "raw": {
                "NY": {
                    "static": {"DHL": 0, "IncH2H": 0, "DCH": 0},
                    "after_increase": {"DHL": 0, "IncH2H": 0, "DCH": 0},
                    "after_restore": {"DHL": 0, "IncH2H": 0, "DCH": 0},
                    "pairs_per_phase": 10,
                }
            }
        },
    )
    return tmp_path


class TestSummary:
    def test_contains_all_sections(self, results):
        text = summarize_results(results)
        assert "### Table 2" in text
        assert "### Table 3" in text
        assert "### Verification" in text

    def test_speedups_computed(self, results):
        text = summarize_results(results)
        assert "4.0x" in text  # 0.008 / 0.002
        assert "2.5x" in text  # 5.0 / 2.0 query speedup
        assert "12%" in text  # 100/800 label ratio

    def test_reproduced_verdicts(self, results):
        text = summarize_results(results)
        assert "**reproduced**" in text
        assert "Mismatches against Dijkstra" in text and "**0**" in text

    def test_missing_dir(self, tmp_path):
        assert summarize_results(tmp_path / "empty") == "(no results found)"

    def test_partial_results(self, tmp_path):
        write(tmp_path, "figure5", {"raw": {"NY": {
            "DHL+": [1.0, 1.0], "IncH2H+": [2.0, 2.0],
            "DHL-": [0.5, 0.5], "IncH2H-": [1.5, 1.5],
        }}})
        text = summarize_results(tmp_path)
        assert "Figure 5" in text
        assert "4/4" in text
