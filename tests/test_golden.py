"""Golden outputs of the default synthetic dataset (SynthSpec(), seed 7).

The files under tests/golden/ were written by this module's pipeline at a
known-good commit. A change that keeps the network, rankings, MAP and the
solved model must reproduce them: the CSVs byte for byte (network.csv is
`bugloc build`'s edge list), the model with the same nodes and clamp flags,
bit-identical clamped rows and free rows within 1e-12.

To pin new outputs after an intended behaviour change, run
    PYTHONPATH=src python tests/test_golden.py
and review the diff of tests/golden/.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from bugloc import synthgen
from bugloc.cli import main
from bugloc.regularizer import dump_model, load_model

GOLDEN = Path(__file__).parent / "golden"
CSV_NAMES = ("results.csv", "sweep.csv", "ttests.csv", "network.csv")
FREE_ROW_TOLERANCE = 1e-12
COUNTS_LINE = "info: counts: nodes B=119 T=345 S=24 M=15; edges B-S=134 B-T=1464 M-S=72"


def run_pipeline(root: Path, build_output: io.StringIO | None = None) -> Path:
    """Generate the default dataset under root and run build, solve,
    eval --model and sweep on it; return the output directory. What build
    prints goes to build_output when one is given."""
    data = root / "data"
    out = root / "out"
    synthgen.generate(synthgen.SynthSpec(), data)
    config = {
        "dataset_name": "golden",
        "reports": str(data / "reports.jsonl"),
        "sources": str(data / "sources.jsonl"),
        "metrics": str(data / "metrics.csv"),
        "embeddings": str(data / "embeddings.txt"),
        "out_dir": str(out),
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    common = ("--config", str(config_path))
    with contextlib.redirect_stdout(build_output or io.StringIO()):
        assert main(["build", *common]) == 0
    assert main(["solve", *common]) == 0
    assert main(["eval", *common, "--model", str(out / "model.tsv")]) == 0
    assert main(["sweep", *common]) == 0
    return out


def read_model(path):
    """(header, {(kind, key): (flag, vector)}) of a model.tsv, parsed here so
    the comparison does not depend on the loader under test."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = {}
        for line in fh:
            kind, key, flag, values = line.rstrip("\n").split("\t")
            rows[kind, key] = (flag, np.array([float(x) for x in values.split()]))
    return header, rows


def test_outputs_match_golden_files(tmp_path):
    build_output = io.StringIO()
    out = run_pipeline(tmp_path, build_output)
    for name in CSV_NAMES:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert COUNTS_LINE in build_output.getvalue().splitlines()
    golden_header, golden = read_model(GOLDEN / "model.tsv")
    header, model = read_model(out / "model.tsv")
    assert header == golden_header
    assert model.keys() == golden.keys()
    worst = 0.0
    for node, (flag, vec) in golden.items():
        assert model[node][0] == flag, node
        if flag == "c":
            assert np.array_equal(model[node][1], vec), node
        else:
            worst = max(worst, float(np.max(np.abs(model[node][1] - vec))))
    assert worst <= FREE_ROW_TOLERANCE


def test_model_round_trip_reproduces_the_golden_file(tmp_path):
    path = tmp_path / "model.tsv"
    dump_model(load_model(GOLDEN / "model.tsv"), path)
    assert path.read_bytes() == (GOLDEN / "model.tsv").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        produced = run_pipeline(Path(workdir))
        GOLDEN.mkdir(exist_ok=True)
        for name in (*CSV_NAMES, "model.tsv"):
            shutil.copyfile(produced / name, GOLDEN / name)
    sys.exit(0)
