"""Smoke test of tools/same_outputs.py at SynthSpec's defaults."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WROTE_NETWORK = 'print(f"wrote {edge_path}")'


def _same_outputs(other: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py"), str(other), "--spec", "S", "--seed", "7"],
        capture_output=True, text=True,
    )


def test_a_copy_reads_identical_and_one_changed_output_fails(tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    same = _same_outputs(copy)
    assert same.returncode == 0, same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert lines[-1] == "all outputs identical"
    compared = [line for line in lines if line.startswith("  ")]
    for name in ("out/model.tsv", "out/model.tsv.bin", "out/results.csv", "fresh/sweep.csv",
                 "network/network.csv", "out/dataset_cache.bin", "query-model.stdout"):
        assert f"  {name}: identical" in compared
    # 40 rankings, one file each
    assert sum(line.startswith("  query/query_") for line in compared) == 40

    cli = copy / "src" / "bugloc" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count(WROTE_NETWORK) == 1
    cli.write_text(text.replace(WROTE_NETWORK, 'print(f"wrote  {edge_path}")'), encoding="utf-8")
    changed = _same_outputs(copy)
    assert changed.returncode == 1, changed.stdout + changed.stderr
    lines = changed.stdout.splitlines()
    assert lines[-1] == "1 outputs differ"
    differ = [line for line in lines if line.startswith("  ") and not line.endswith(": identical")]
    assert len(differ) == 1 and differ[0].startswith("  build.stdout: line ")
