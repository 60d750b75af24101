"""Golden outputs of the default synthetic dataset (SynthSpec(), seed 7).

The files under tests/golden/ were written by this module's pipeline at a
known-good commit. A change that keeps the tokens, network, rankings, MAP
and the solved model must reproduce them: the CSVs and `bugloc ingest`'s
corpus_cache.json byte for byte (network.csv is `bugloc build`'s edge
list), the model with the same nodes and clamp flags, bit-identical clamped
rows and free rows within 1e-12.

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
BYTE_NAMES = ("results.csv", "sweep.csv", "ttests.csv", "network.csv", "corpus_cache.json")
FREE_ROW_TOLERANCE = 1e-12
COUNTS_LINE = "info: counts: nodes B=119 T=345 S=24 M=15; edges B-S=134 B-T=1464 M-S=72"


def run_pipeline(root: Path, build_output: io.StringIO | None = None) -> dict[str, Path]:
    """Generate the default dataset under root, run ingest on it into one
    output directory and build, solve, eval --model and sweep into another,
    so that they tokenize the corpus themselves; return the path of each
    golden file's output. What build prints goes to build_output when one is
    given."""
    data = root / "data"
    out = root / "out"
    ingested = root / "ingest"
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
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", *common, "--out-dir", str(ingested)]) == 0
    with contextlib.redirect_stdout(build_output or io.StringIO()):
        assert main(["build", *common]) == 0
    assert main(["solve", *common]) == 0
    assert main(["eval", *common, "--model", str(out / "model.tsv")]) == 0
    assert main(["sweep", *common]) == 0
    produced = {name: out / name for name in (*BYTE_NAMES, "model.tsv")}
    produced["corpus_cache.json"] = ingested / "corpus_cache.json"
    return produced


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
    produced = run_pipeline(tmp_path, build_output)
    for name in BYTE_NAMES:
        assert produced[name].read_bytes() == (GOLDEN / name).read_bytes(), name
    assert COUNTS_LINE in build_output.getvalue().splitlines()
    golden_header, golden = read_model(GOLDEN / "model.tsv")
    header, model = read_model(produced["model.tsv"])
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
        for name, path in produced.items():
            shutil.copyfile(path, GOLDEN / name)
    sys.exit(0)
