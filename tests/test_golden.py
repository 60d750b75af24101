"""Golden outputs of the default synthetic dataset (SynthSpec(), seed 7).

The files under tests/golden/ were written by this module's pipeline at a
known-good commit. A change that keeps the tokens, network, rankings, MAP
and the solved model must reproduce them: the CSVs byte for byte
(network.csv is `bugloc build`'s edge list), the model with the same nodes
and clamp flags, bit-identical clamped rows and free rows within 1e-12, and
the report and source token maps of `bugloc ingest`'s dataset_cache.bin,
decoded here by recordref, with the hashes and token rules of its key,
those of corpus_cache.json.

To pin new outputs after an intended behaviour change, run
    PYTHONPATH=src python tests/test_golden.py
and review the diff of tests/golden/. The route copies every produced file
but model.tsv, which it copies only when the produced model fails the
comparison above: free rows may differ in their last bits between hosts, and
a model within the tolerance keeps the committed rows. corpus_cache.json it
writes from the decoded dataset_cache.bin.
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
from bugloc.network import NodeTable
from bugloc.regularizer import RepresentationModel, dump_model, load_model
from recordref import corpus_token_maps, read_raw

GOLDEN = Path(__file__).parent / "golden"
BYTE_NAMES = ("results.csv", "sweep.csv", "ttests.csv", "network.csv")
FREE_ROW_TOLERANCE = 1e-12
COUNTS_LINE = "info: counts: nodes B=119 T=345 S=24 M=15; edges B-S=134 B-T=1464 M-S=72"


def run_pipeline(root: Path, build_output: io.StringIO | None = None) -> dict[str, Path]:
    """Generate the default dataset under root, run ingest on it into one
    output directory, build and solve into another, so that they tokenize
    the corpus themselves, and eval --model alone into a third, so that all
    three CSVs come from its one pass; return the path of each golden file's
    output. What build prints goes to build_output when one is given."""
    data = root / "data"
    out = root / "out"
    ingested = root / "ingest"
    evaluated = root / "eval"
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

    def run(*argv):
        # not an assert: the commands must run under python -O too
        if main([*argv, *common]) != 0:
            raise RuntimeError(f"bugloc {argv[0]} failed")

    with contextlib.redirect_stdout(io.StringIO()):
        run("ingest", "--out-dir", str(ingested))
    with contextlib.redirect_stdout(build_output or io.StringIO()):
        run("build")
    run("solve")
    run("eval", "--model", str(out / "model.tsv"), "--out-dir", str(evaluated))
    produced = {name: out / name for name in ("network.csv", "model.tsv")}
    produced.update({name: evaluated / name for name in ("results.csv", "sweep.csv", "ttests.csv")})
    produced["dataset_cache.bin"] = ingested / "dataset_cache.bin"
    return produced


def corpus_payload(path) -> dict:
    """The report and source token maps of the dataset cache at path, and
    the hashes and token rules of its key, as corpus_cache.json holds them:
    in the key layout of the corpus cache that they were pinned from."""
    report_tokens, source_tokens = corpus_token_maps(path)
    key = read_raw(path)[0]["key"]
    inputs = key["inputs"]
    corpus_key = {
        "version": 1,
        "reports_sha256": inputs["reports"],
        "rules": {
            "min_length": key["min_length"],
            "stem": key["stem"],
            "stopwords_sha256": inputs.get("stopwords_file", "builtin"),
        },
        "resolved_only": key["resolved_only"],
    }
    if "sources" in inputs:
        corpus_key["sources_sha256"] = inputs["sources"]
    return {"key": corpus_key, "report_tokens": report_tokens, "source_tokens": source_tokens}


def read_model(path):
    """(header, {(kind, key): (flag, vector)}) of a model.tsv, in file order,
    parsed here so the comparison does not depend on bugloc's own reader.
    Lines end at "\n" only, as dump_model writes them: a key may hold "\r"."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        header = json.loads(fh.readline())
        rows = {}
        for line in fh:
            kind, key, flag, values = line.rstrip("\n").split("\t")
            rows[kind, key] = (flag, np.array([float(x) for x in values.split()]))
    return header, rows


def model_of(path) -> RepresentationModel:
    """The model a model.tsv holds, built from read_model's parse."""
    header, rows = read_model(path)
    blocks = {}
    for kind, key in rows:
        blocks.setdefault(kind, []).append(key)
    flags, vectors = zip(*rows.values())
    return RepresentationModel(
        NodeTable.of(blocks), np.array(vectors).reshape(len(rows), header["dim"]),
        np.array(flags) == "c", network_digest=header["network_digest"],
    )


def model_difference(path) -> str | None:
    """The first way the model.tsv at path differs from the golden one, or
    None when it is the golden model: the same header, nodes and clamp
    flags, clamped rows bit for bit, free rows within FREE_ROW_TOLERANCE."""
    golden_header, golden = read_model(GOLDEN / "model.tsv")
    header, model = read_model(path)
    if header != golden_header:
        return f"header {header} is not {golden_header}"
    if model.keys() != golden.keys():
        return "other nodes"
    worst = 0.0
    for node, (flag, vec) in golden.items():
        if model[node][0] != flag:
            return f"flag of {node}"
        if flag == "c" and not np.array_equal(model[node][1], vec):
            return f"clamped row of {node}"
        if flag == "f":
            worst = max(worst, float(np.max(np.abs(model[node][1] - vec))))
    return None if worst <= FREE_ROW_TOLERANCE else f"free rows differ by {worst}"


def test_outputs_match_golden_files(tmp_path):
    build_output = io.StringIO()
    produced = run_pipeline(tmp_path, build_output)
    for name in BYTE_NAMES:
        assert produced[name].read_bytes() == (GOLDEN / name).read_bytes(), name
    golden = json.loads((GOLDEN / "corpus_cache.json").read_text(encoding="utf-8"))
    assert corpus_payload(produced["dataset_cache.bin"]) == golden
    assert COUNTS_LINE in build_output.getvalue().splitlines()
    assert model_difference(produced["model.tsv"]) is None


def test_model_round_trip_reproduces_the_golden_file(tmp_path):
    golden = model_of(GOLDEN / "model.tsv")
    path = tmp_path / "model.tsv"
    dump_model(golden, path)
    assert path.read_bytes() == (GOLDEN / "model.tsv").read_bytes()
    loaded = load_model(path)
    assert loaded.nodes == golden.nodes and loaded.network_digest == golden.network_digest
    np.testing.assert_array_equal(loaded.clamped_rows, golden.clamped_rows)
    np.testing.assert_array_equal(loaded.matrix.view(np.uint64), golden.matrix.view(np.uint64))


def _keeps_the_golden_model(path) -> bool:
    try:
        return model_difference(path) is None
    # a golden file of another format, after an intended change, is not kept
    except Exception:
        return False


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        produced = run_pipeline(Path(workdir))
        GOLDEN.mkdir(exist_ok=True)
        for name, path in produced.items():
            if name == "dataset_cache.bin":
                text = json.dumps(corpus_payload(path), sort_keys=True) + "\n"
                (GOLDEN / "corpus_cache.json").write_text(text, encoding="utf-8")
            elif name != "model.tsv" or not _keeps_the_golden_model(path):
                shutil.copyfile(path, GOLDEN / name)
    sys.exit(0)
