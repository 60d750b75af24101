"""Check that two bugloc trees write the same outputs, byte for byte.

    python tools/same_outputs.py PARENT_DIR [--spec M L] [--seed 1]

PARENT_DIR is another checkout (any directory holding src/bugloc), usually
the parent commit of a change. For each spec, the synthetic dataset is
generated once, with this tree's generator. Then each tree runs, in turn
and under the same paths, `ingest`, `build`, `solve`, `eval --model`, a
fresh `eval` and a batch `query --model` of the dataset's last 40 reports.
Every file they write is compared, with each command's stdout and exit
code and its manifest. A file reads "identical", or names the first
differing line (text) or byte offset (.bin). Exits 1 on any difference.

Specs: S is SynthSpec's defaults, M and L are the benchmark's specs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPECS = {
    "S": {},
    "M": dict(num_reports=1000, num_files=200, vocab_size=2000, dim=50),
    "L": dict(num_reports=5000, num_files=1000, vocab_size=5000, dim=100),
}
QUERIES = 40


def steps(run: Path, queries: Path) -> list[tuple]:
    """(name, command, out dir, extra arguments) of each step of a run into
    the directory run."""
    model = ["--model", str(run / "out" / "model.tsv")]
    return [
        ("ingest", "ingest", "out", []),
        ("build", "build", "network", []),
        ("solve", "solve", "out", []),
        ("eval-model", "eval", "out", model),
        ("eval-fresh", "eval", "fresh", []),
        ("query-model", "query", "query", [*model, "--report", str(queries)]),
    ]


def generate(spec: str, seed: int, data: Path) -> Path:
    """The spec's dataset under data, and a file of its last QUERIES reports."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from bugloc import synthgen

    synthgen.generate(synthgen.SynthSpec(seed=seed, **SPECS[spec]), data)
    lines = (data / "reports.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    queries = data.parent / "queries.jsonl"
    queries.write_text("".join(lines[-QUERIES:]), encoding="utf-8")
    return queries


def run_tree(tree: Path, data: Path, queries: Path, run: Path) -> None:
    """Run every step with tree's sources into run; each step's stdout, exit
    code and manifest are kept as <step>.stdout and <step>.manifest.json."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run.mkdir(parents=True)
    for name, command, out, extra in steps(run, queries):
        argv = [command, "--dataset-dir", str(data), "--out-dir", str(run / out), *extra]
        proc = subprocess.run(
            [sys.executable, "-m", "bugloc", *argv],
            cwd=run, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        (run / f"{name}.stdout").write_bytes(proc.stdout + b"exit %d\n" % proc.returncode)
        manifest = run / out / "manifest.json"
        if manifest.exists():
            manifest.rename(run / f"{name}.manifest.json")


def first_difference(path: Path, mine: bytes, theirs: bytes) -> str | None:
    """None when equal, else where they first differ: the line of a text
    file, the byte offset of a .bin file."""
    if mine == theirs:
        return None
    if path.suffix == ".bin":
        offset = next((i for i, (a, b) in enumerate(zip(mine, theirs)) if a != b), None)
        if offset is None:
            return f"one is a prefix of the other ({len(theirs)} vs {len(mine)} bytes)"
        return f"first differing byte at offset {offset}"
    ours, parents = mine.splitlines(), theirs.splitlines()
    for lineno, (a, b) in enumerate(zip(ours, parents), 1):
        if a != b:
            return f"line {lineno} differs: parent {b[:120]!r}, this tree {a[:120]!r}"
    return f"one is a prefix of the other ({len(parents)} vs {len(ours)} lines)"


def compare(parent: Path, mine: Path) -> int:
    """Print one line per file of either run; the number that differ."""
    files = sorted(
        {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
        | {p.relative_to(mine) for p in mine.rglob("*") if p.is_file()}
    )
    differ = 0
    for rel in files:
        a, b = mine / rel, parent / rel
        if not (a.exists() and b.exists()):
            verdict = "only in the parent" if b.exists() else "only in this tree"
        else:
            verdict = first_difference(rel, a.read_bytes(), b.read_bytes()) or "identical"
        differ += verdict != "identical"
        print(f"  {rel}: {verdict}")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=Path, help="the other tree, holding src/bugloc")
    parser.add_argument("--spec", nargs="+", choices=sorted(SPECS), default=["M", "L"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "bugloc" / "__init__.py").is_file():
        parser.error(f"no src/bugloc under {parent}")
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for spec in args.spec:
            work = Path(tmp) / spec
            data = work / "data"
            queries = generate(spec, args.seed, data)
            # both trees run under the same paths, which the manifests record
            run = work / "run"
            for side, tree in (("parent", parent), ("this", ROOT)):
                run_tree(tree, data, queries, run)
                run.rename(work / side)
            print(f"spec {spec}, seed {args.seed}:")
            differ += compare(work / "parent", work / "this")
    print("all outputs identical" if not differ else f"{differ} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
