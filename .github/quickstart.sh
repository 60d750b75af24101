#!/bin/bash
# The README quick start, run end to end in a fresh temporary directory, with a
# check of each step's outputs; the "README quick start" step of
# .github/workflows/tests.yml runs it, and its comment lists the checks. The
# directory is removed on exit, pass or fail.
# Run it from any directory: bash .github/quickstart.sh
set -e
export PYTHONPATH="$(cd "$(dirname "$0")/.." && pwd)/src"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cd "$dir"
python -m bugloc synth --out-dir demo --seed 7
python -m bugloc ingest --dataset-dir demo --out-dir demo/out
test -s demo/out/dataset_cache.bin
for f in corpus_cache.bin embeddings_cache.bin; do
  if [ -e "demo/out/$f" ]; then echo "ingest wrote $f"; exit 1; fi
done
cp -r demo/out demo/nocache
rm demo/nocache/dataset_cache.bin
python -m bugloc build  --dataset-dir demo --out-dir demo/network > build.txt
python -m bugloc solve  --dataset-dir demo --out-dir demo/out
test -s demo/out/model.tsv.bin
left=$(find demo/out -name '*.tmp')
if [ -n "$left" ]; then echo "solve left $left"; exit 1; fi
python -m bugloc solve  --dataset-dir demo --out-dir demo/nocache
for f in model.tsv model.tsv.bin; do cmp "demo/out/$f" "demo/nocache/$f"; done
python -m bugloc eval   --dataset-dir demo --out-dir demo/out --model demo/out/model.tsv
test -s demo/network/network.csv
for f in results.csv ttests.csv sweep.csv; do test -s "demo/out/$f"; done
python - demo/manifest.json demo/out/manifest.json demo/network/manifest.json <<'PY'
import json, sys
def refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")
manifests = {}
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        manifests[path] = json.loads(fh.read(), parse_constant=refuse)
for diag in manifests["demo/network/manifest.json"]["network"]["diagnostics"]:
    fields = [diag.get(key) for key in ("severity", "code", "message")]
    if not all(isinstance(field, str) for field in fields):
        raise ValueError(f"diagnostic {diag!r} lacks a string severity, code or message")
PY
head -n 1 demo/reports.jsonl > my_bug.json
python -m bugloc query --dataset-dir demo --report my_bug.json --k 10 > fresh.csv
python -m bugloc query --dataset-dir demo --report my_bug.json --k 10 \
  --model demo/out/model.tsv > loaded.csv
cat fresh.csv
test -s fresh.csv
cmp fresh.csv loaded.csv
python -m json.tool my_bug.json > my_bug_pretty.json
python -m bugloc query --dataset-dir demo --report my_bug_pretty.json --k 10 > pretty.csv
cmp fresh.csv pretty.csv
noscipy='import sys; sys.modules["scipy"] = None; from bugloc.cli import main; sys.exit(main(sys.argv[1:]))'
python -c "$noscipy" ingest --dataset-dir demo --out-dir demo/noscipy
cmp demo/out/dataset_cache.bin demo/noscipy/dataset_cache.bin
python -c "$noscipy" build --dataset-dir demo --out-dir demo/noscipy-network > noscipy-build.txt
cmp demo/network/network.csv demo/noscipy-network/network.csv
grep '^info: counts: ' build.txt > counts.txt
grep '^info: counts: ' noscipy-build.txt > noscipy-counts.txt
cmp counts.txt noscipy-counts.txt
python -c "$noscipy" eval --dataset-dir demo --out-dir demo/noscipy --model demo/out/model.tsv
for f in results.csv ttests.csv sweep.csv; do cmp "demo/out/$f" "demo/noscipy/$f"; done
python -c "$noscipy" query --dataset-dir demo --report my_bug.json --k 10 \
  --model demo/out/model.tsv > noscipy.csv
cmp loaded.csv noscipy.csv
python -c "$noscipy" solve --dataset-dir demo --out-dir demo/noscipy-solve
for f in model.tsv model.tsv.bin; do cmp "demo/out/$f" "demo/noscipy-solve/$f"; done
python -c "$noscipy" eval --dataset-dir demo --out-dir demo/noscipy-eval
for f in results.csv ttests.csv sweep.csv; do cmp "demo/out/$f" "demo/noscipy-eval/$f"; done
python -c "$noscipy" query --dataset-dir demo --report my_bug.json --k 10 > noscipy-fresh.csv
cmp fresh.csv noscipy-fresh.csv
cp demo/out/model.tsv demo/text.tsv
code=0
python -m bugloc eval --dataset-dir demo --out-dir demo/text --model demo/text.tsv 2> text.err || code=$?
cat text.err
test "$code" -eq 1
grep -qF 'error: demo/text.tsv.bin: missing, damaged or not the record of demo/text.tsv; solve again' text.err
mkdir nometrics
cp demo/reports.jsonl demo/sources.jsonl demo/embeddings.txt nometrics/
python -m bugloc build --dataset-dir nometrics --out-dir nometrics/network > nometrics/build.txt
cat nometrics/build.txt
grep -q '^info: counts: nodes B=[0-9]* T=[0-9]* S=[0-9]* M=0; edges ' nometrics/build.txt
if grep -q 'M-S=' nometrics/build.txt; then echo "M-S edges without metrics"; exit 1; fi
python -m bugloc eval --dataset-dir nometrics --out-dir nometrics/out
for f in results.csv ttests.csv sweep.csv; do test -s "nometrics/out/$f"; done
code=0
python -m bugloc eval --dataset-dir demo --out-dir missing --model demo/out/missing.tsv 2> missing.err || code=$?
cat missing.err
test "$code" -eq 1
grep -qF 'error: cannot read model demo/out/missing.tsv' missing.err
mkdir moved
cp demo/sources.jsonl demo/metrics.csv demo/embeddings.txt moved/
python - demo/reports.jsonl moved/reports.jsonl demo/sources.jsonl <<'PY'
import json, sys
with open(sys.argv[1], encoding="utf-8") as fh:
    reports = [json.loads(line) for line in fh]
with open(sys.argv[3], encoding="utf-8") as fh:
    universe = sorted(json.loads(line)["path"] for line in fh)
fixed = reports[0]["fixed_files"]
fixed[0] = next(path for path in universe if path not in fixed)
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    fh.writelines(json.dumps(report) + "\n" for report in reports)
PY
code=0
python -m bugloc eval --dataset-dir moved --out-dir moved/out --model demo/out/model.tsv 2> moved.err || code=$?
cat moved.err
test "$code" -eq 1
grep -qF 'error: the model was solved over another network' moved.err
