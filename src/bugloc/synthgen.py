"""Deterministic synthetic corpora with planted structure.

Every file belongs to a topic. Reports draw their wording from the topic
of the files they fix plus a few per-file signature words, so report text
predicts the fixed file. Each content word has two surface forms that
share a single embedding vector; reports in the trailing
late_synonym_fraction of the timeline use the second form. Late (query
side) reports therefore overlap lexically with only a thin slice of the
training corpus while embedding lookups are unaffected, which is the
regime the learned representation is meant to exploit. Metric values
track the file's topic so metric buckets carry real signal.

All output is a pure function of the spec: one seeded random stream, no
wall clock, repr-formatted floats.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from .errors import ValidationError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 7
    num_reports: int = 160
    num_files: int = 24
    vocab_size: int = 420
    dim: int = 16
    topic_count: int = 8
    noise_rate: float = 0.1
    synonym_split: bool = True
    late_synonym_fraction: float = 0.3

    def __post_init__(self):
        for name in ("num_reports", "num_files", "vocab_size", "dim", "topic_count"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be a positive integer")
        if self.topic_count > self.vocab_size:
            raise ValidationError("topic_count must not exceed vocab_size")
        if self.topic_count > self.num_files:
            raise ValidationError("topic_count must not exceed num_files")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValidationError("noise_rate must lie in [0, 1]")
        if not 0.0 <= self.late_synonym_fraction <= 1.0:
            raise ValidationError("late_synonym_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class GeneratedCorpus:
    reports_path: Path
    sources_path: Path
    metrics_path: Path
    embeddings_path: Path
    allocation: dict[str, int]  # the _allocate rung taken


def _allocate(spec: SynthSpec) -> tuple[int, int, int]:
    """Pick (topic words per topic, file words per file, surface forms).

    Degrades gracefully when vocab_size is tight instead of erroring;
    topic_count <= vocab_size makes the last rung always feasible.
    """
    surfaces = 2 if spec.synonym_split else 1
    ladder = ((6, 3), (5, 3), (4, 2), (3, 2), (2, 1), (1, 1), (1, 0))
    for ct, cf in ladder:
        concepts = spec.topic_count * ct + spec.num_files * cf
        if concepts * surfaces + 4 <= spec.vocab_size:
            return ct, cf, surfaces
    for ct, cf in ((1, 1), (1, 0)):
        concepts = spec.topic_count * ct + spec.num_files * cf
        if concepts <= spec.vocab_size:
            return ct, cf, 1
    return 1, 0, 1


def _unit(rng: random.Random, dim: int) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(math.fsum(x * x for x in v))
        if norm > 1e-9:
            return [x / norm for x in v]


def _blend(*parts) -> list[float]:
    dim = len(parts[0][1])
    out = [0.0] * dim
    for scale, vec in parts:
        for i in range(dim):
            out[i] += scale * vec[i]
    norm = math.sqrt(math.fsum(x * x for x in out))
    return [x / norm for x in out] if norm > 0 else out


def generate(spec: SynthSpec, out_dir) -> GeneratedCorpus:
    """Write reports.jsonl, sources.jsonl, metrics.csv, embeddings.txt.

    Output bytes depend only on spec. Every emitted file passes the
    package's ingestion validators. A vocabulary too tight to give files
    words of their own is logged as a warning.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(spec.seed)
    ct, cf, surfaces = _allocate(spec)
    if cf == 0:
        logger.warning("vocab_size %d leaves files no words of their own, so report text "
                       "cannot tell one topic's files apart", spec.vocab_size)

    topic_of = [j % spec.topic_count for j in range(spec.num_files)]
    topic_dirs = [_unit(rng, spec.dim) for _ in range(spec.topic_count)]
    file_dirs = [_unit(rng, spec.dim) for _ in range(spec.num_files)]

    def word_forms(base: str) -> list[str]:
        return [base + "a", base + "b"][:surfaces]

    # word -> embedding vector; synonym surfaces share their vector
    table: dict[str, list[float]] = {}
    topic_words: list[list[list[str]]] = []  # topic -> concept -> surfaces
    for t in range(spec.topic_count):
        concepts = []
        for c in range(ct):
            vec = _blend((1.0, topic_dirs[t]), (0.25, _unit(rng, spec.dim)))
            forms = word_forms(f"top{t:02d}w{c:02d}")
            for form in forms:
                table[form] = vec
            concepts.append(forms)
        topic_words.append(concepts)
    file_words: list[list[list[str]]] = []  # file -> concept -> surfaces
    for j in range(spec.num_files):
        concepts = []
        for c in range(cf):
            vec = _blend(
                (1.0, topic_dirs[topic_of[j]]),
                (0.9, file_dirs[j]),
                (0.15, _unit(rng, spec.dim)),
            )
            forms = word_forms(f"fil{j:02d}w{c:02d}")
            for form in forms:
                table[form] = vec
            concepts.append(forms)
        file_words.append(concepts)
    noise_count = spec.vocab_size - len(table)
    noise_pool = []
    for i in range(noise_count):
        word = f"noise{i:03d}"
        table[word] = _unit(rng, spec.dim)
        noise_pool.append(word)

    paths = [
        f"src/topic{topic_of[j]:02d}/File{j:02d}.java" for j in range(spec.num_files)
    ]

    # source documents: topic and file signature words plus noise filler
    sources_path = out / "sources.jsonl"
    with open(sources_path, "w", encoding="utf-8", newline="\n") as fh:
        for j in range(spec.num_files):
            tokens: list[str] = []
            for concept in topic_words[topic_of[j]]:
                tokens.extend([concept[0]] * 2)
            for concept in file_words[j]:
                tokens.extend([concept[0]] * 3)
            tokens.extend(
                rng.choice(noise_pool) if noise_pool else rng.choice(sorted(table))
                for _ in range(30)
            )
            rec = {"path": paths[j], "content": " ".join(tokens)}
            fh.write(json.dumps(rec) + "\n")

    metrics_path = out / "metrics.csv"
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("path,metric,value\n")
        for j in range(spec.num_files):
            t = topic_of[j]
            rows = (
                ("branchiness", 4.0 + 3.0 * t + rng.uniform(-0.8, 0.8)),
                ("fanout", rng.uniform(1.0, 9.0)),
                ("lines", 120.0 + 40.0 * t + rng.uniform(-8.0, 8.0)),
            )
            for metric, value in rows:
                fh.write(f"{paths[j]},{metric},{value!r}\n")

    # reports: the trailing late_synonym_fraction switches surface forms
    flip_start = spec.num_reports - math.ceil(
        spec.late_synonym_fraction * spec.num_reports
    )
    base_time = datetime(2021, 1, 1, 0, 0, 0)
    reports_path = out / "reports.jsonl"
    with open(reports_path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(spec.num_reports):
            surface = 1 if (surfaces == 2 and i >= flip_start) else 0
            first = rng.randrange(spec.num_files)
            fixed = [first]
            if rng.random() < 0.15:
                siblings = [
                    g
                    for g in range(spec.num_files)
                    if topic_of[g] == topic_of[first] and g != first
                ]
                if siblings:
                    fixed.append(rng.choice(siblings))
            topic = topic_of[first]
            n_tokens = 30 + rng.randrange(11)
            tokens = []
            for _ in range(n_tokens):
                r = rng.random()
                if r < spec.noise_rate or (not file_words[first] and not topic_words[topic]):
                    tokens.append(
                        rng.choice(noise_pool) if noise_pool else rng.choice(sorted(table))
                    )
                elif rng.random() < 0.55 or cf == 0:
                    tokens.append(rng.choice(topic_words[topic])[surface])
                else:
                    tokens.append(rng.choice(file_words[rng.choice(fixed)])[surface])
            status = "open" if rng.random() < 0.04 else "resolved"
            stamp = (base_time + timedelta(hours=i)).isoformat() + "Z"
            rec = {
                "id": f"SYN-{i:04d}",
                "summary": " ".join(tokens[:6]),
                "description": " ".join(tokens[6:]),
                "report_time": stamp,
                "status": status,
                "fixed_files": [paths[j] for j in fixed],
            }
            fh.write(json.dumps(rec) + "\n")

    embeddings_path = out / "embeddings.txt"
    with open(embeddings_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {spec.dim}\n")
        for word in table:
            fh.write(word + " " + " ".join(repr(x) for x in table[word]) + "\n")

    return GeneratedCorpus(
        reports_path=reports_path,
        sources_path=sources_path,
        metrics_path=metrics_path,
        embeddings_path=embeddings_path,
        allocation={"topic_words": ct, "file_words": cf, "surfaces": surfaces},
    )
