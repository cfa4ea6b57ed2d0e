"""Workload inputs that are novel by content fingerprint, drawn from a seed.

Paper corpora from neighbouring seeds share most of their strings (the
generators derive per-trace seeds by offset), so "a new seed" does not
mean "new work": fifteen corpora from seeds 200-214 hold only 345
distinct strings out of 1,650.  A pool built from seeds alone hands the
program strings it has already evaluated, and one run then mixes cold and
warm operations.  :class:`NovelTraces` therefore derives widely spaced
corpus seeds from the workload seed and keeps a trace only when the
``string_fingerprint`` of its weighted string has not been seen in this
run.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.engine import string_fingerprint
from repro.pipeline.config import ExperimentConfig
from repro.pipeline.pipeline import AnalysisPipeline
from repro.strings.tokens import WeightedString
from repro.traces.model import IOTrace
from repro.workloads.corpus import CorpusConfig, build_corpus

#: The representation every workload uses (the paper's, with cut weight 2).
CONFIG = ExperimentConfig(cut_weight=2)

Item = Tuple[IOTrace, WeightedString]


def encode(traces: Sequence[IOTrace]) -> List[WeightedString]:
    return AnalysisPipeline(CONFIG).encode(traces)


def paper_corpus(seed: int) -> List[Item]:
    """The 110-trace paper corpus for *seed*, with its weighted strings."""
    traces = build_corpus(CorpusConfig.paper(seed=seed))
    return list(zip(traces, encode(traces)))


class NovelTraces:
    """Draw traces whose strings no earlier draw (or *exclude*) produced."""

    def __init__(self, seed: int, stream: str, exclude: Iterable[str] = ()) -> None:
        self._seeds = random.Random(f"{stream}:{seed}")
        self.seen: Set[str] = set(exclude)
        self._buffer: List[Item] = []
        self._count = 0
        self.corpora_built = 0
        self.duplicates_dropped = 0

    def _refill(self) -> None:
        corpus_seed = self._seeds.randrange(1, 2**31)
        self.corpora_built += 1
        for trace, string in paper_corpus(corpus_seed):
            fingerprint = string_fingerprint(string)
            if fingerprint in self.seen:
                self.duplicates_dropped += 1
                continue
            self.seen.add(fingerprint)
            self._buffer.append((trace, string))

    def take(self, count: int) -> List[Item]:
        """*count* novel traces, renamed ``<label>-<n>`` so names stay unique."""
        while len(self._buffer) < count:
            self._refill()
        taken, self._buffer = self._buffer[:count], self._buffer[count:]
        renamed: List[Item] = []
        for trace, string in taken:
            self._count += 1
            name = f"{trace.label}-{self._count:05d}"
            renamed.append((trace.with_name(name), string.with_name(name)))
        return renamed

    def take_balanced(self, counts: Dict[str, int], groups: int) -> List[List[Item]]:
        """*groups* lists of novel traces, each with *counts* traces per label.

        Each label's traces are sorted by string length and dealt round
        robin, so every group gets the same spread of string lengths: the
        Kast cost of a group grows with the lengths of its strings, and
        groups dealt at random would differ in cost by a quarter.
        """
        by_label: Dict[str, List[Item]] = {label: [] for label in counts}
        pending: List[Item] = []
        while any(len(by_label[label]) < need * groups for label, need in counts.items()):
            if not self._buffer:
                self._refill()
            item = self._buffer.pop(0)
            label = item[0].label
            if label in by_label and len(by_label[label]) < counts[label] * groups:
                by_label[label].append(item)
            else:
                pending.append(item)
        self._buffer = pending + self._buffer
        dealt: List[List[Item]] = [[] for _ in range(groups)]
        for label in sorted(counts):
            ordered = sorted(by_label[label], key=lambda item: (len(item[1]), item[0].name))
            for index, (trace, string) in enumerate(ordered):
                self._count += 1
                name = f"{label}-{self._count:05d}"
                dealt[index % groups].append((trace.with_name(name), string.with_name(name)))
        return dealt


def fingerprints(strings: Iterable[WeightedString]) -> List[str]:
    return [string_fingerprint(string) for string in strings]
