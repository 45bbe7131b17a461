"""Seeded inputs of the workloads.

Every input comes from the generated corpus of :mod:`repro.corpus`.
Request pools and arrival schedules derive from the workload seed, from
corpus seeds of 10 000 and up.  Training corpora (the served models' and
train_js_vars') are fixed, from seeds below 10 000, so no request is a
training file and trained models do not change with the seed.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig


@dataclass(frozen=True)
class Cell:
    """One served (language, task) model and how it is trained."""

    name: str
    language: str
    task: str
    train_projects: int
    train_seed: int
    epochs: int = 3
    #: Only for translate cells: the language requests ask for.
    target_language: Optional[str] = None


#: The models the serving workloads train, pack and serve.
CELLS = {
    cell.name: cell
    for cell in (
        Cell("js_vars", "javascript", "variable_naming", 4, 101),
        Cell("js_methods", "javascript", "method_naming", 4, 102),
        Cell("java_types", "java", "type_prediction", 4, 103),
        Cell("java_translate", "java", "translate", 2, 104, target_language="python"),
    )
}

#: Held-out files evaluated after each training (project-disjoint).
HELDOUT_FILES = 24


def _files(language: str, projects: int, seed: int, files_per_project=(4, 10)):
    kept, _removed = deduplicate(
        generate_corpus(
            CorpusConfig(
                language=language,
                n_projects=projects,
                files_per_project=files_per_project,
                seed=seed,
            )
        )
    )
    return kept


def _by_project(files) -> List[list]:
    """Files grouped per generated project.

    Project names are reused across a large corpus, but each project's
    files are generated consecutively, so a group is a run of one name.
    """
    projects: List[list] = []
    for file in files:
        if not projects or projects[-1][0].project != file.project:
            projects.append([])
        projects[-1].append(file)
    return projects


def project_split(files, train_files: int, heldout_files: int):
    """Whole projects to training until ``train_files`` files, the rest held out."""
    train: List[str] = []
    heldout: List[str] = []
    for group in _by_project(files):
        if len(train) < train_files:
            train.extend(f.source for f in group)
        else:
            heldout.extend(f.source for f in group)
    return train[:train_files], heldout[:heldout_files]


def served_training_jobs(cell_names: List[str]) -> List[dict]:
    """Training inputs of the served cells (fixed, independent of the seed)."""
    jobs = []
    for name in cell_names:
        cell = CELLS[name]
        files = _files(cell.language, cell.train_projects + 4, cell.train_seed)
        # The last four projects are held out; the rest train.
        groups = _by_project(files)
        train = [f.source for group in groups[:-4] for f in group]
        heldout = [f.source for group in groups[-4:] for f in group][:HELDOUT_FILES]
        jobs.append(_job(cell, train, heldout))
    return jobs


def _job(cell: Cell, train: List[str], heldout: List[str]) -> dict:
    return {
        "name": cell.name,
        "language": cell.language,
        "task": cell.task,
        "epochs": cell.epochs,
        "train": train,
        "heldout": heldout,
    }


# ----------------------------------------------------------------------
# train_js_vars
# ----------------------------------------------------------------------

TRAIN_FILES = 48
TRAIN_HELDOUT_FILES = 48
TRAIN_CORPUS_SEED = 201
#: Files per shard: three shards of 48 files, so shuffled epochs cycle
#: through more shards than the two-payload LRU holds.
SHARD_SIZE = 16


def train_job() -> dict:
    """A fixed JS variable-naming corpus, split by project.

    The corpus does not depend on the workload seed: held-out accuracy
    must repeat exactly from run to run, and a seeded corpus (or even a
    seeded file order) moved it by several points.
    """
    files = _files("javascript", 24, TRAIN_CORPUS_SEED)
    train, heldout = project_split(files, TRAIN_FILES, TRAIN_HELDOUT_FILES)
    return _job(CELLS["js_vars"], train, heldout)


# ----------------------------------------------------------------------
# fleet_file_mix
# ----------------------------------------------------------------------

FLEET_CELLS = ["js_vars", "js_methods", "java_types", "java_translate"]
#: Share of requests per cell.  Translate misses are the heaviest
#: requests; at 40% of the mix a 30 s run has about twice the ten that
#: latency_tail_ms looks beyond, so the tail sits inside their group
#: instead of on its edge.
FLEET_CELL_WEIGHTS = [0.25, 0.15, 0.2, 0.4]
#: Probability that a request is a program not sent before.
NEW_SHARE = 0.17
#: Share of new non-translate programs requested with top=5.
TOP_SHARE = 0.2
TOP_K = 5
#: Repeats pick earlier programs with weight rank**-ZIPF_EXPONENT (first
#: sent = rank 1).  With 1.0 a single program took a fifth of all
#: requests, so the hit latency tracked that one program's size.
ZIPF_EXPONENT = 0.5


@dataclass(frozen=True)
class Request:
    cell: str
    source: str
    top: int = 0

    def body(self) -> dict:
        cell = CELLS[self.cell]
        body = {"source": self.source, "language": cell.language, "task": cell.task}
        if self.top:
            body["top"] = self.top
        if cell.target_language is not None:
            body["target_language"] = cell.target_language
        return body


def _file_pools(seed: int) -> Dict[str, List[str]]:
    """Per cell, the files between the corpus's 30th and 70th size percentiles.

    The banding keeps the cost of a hit (two parses) and of a miss from
    swinging with whichever programs a seed happens to make popular.
    """
    pools = {}
    for index, name in enumerate(FLEET_CELLS):
        cell = CELLS[name]
        files = _files(cell.language, 45, 10_000 + 10 * seed + index)
        sizes = sorted(len(f.source) for f in files)
        low, high = sizes[len(sizes) * 3 // 10], sizes[len(sizes) * 7 // 10]
        pools[name] = [f.source for f in files if low <= len(f.source) <= high]
    return pools


def fleet_requests(seed: int, count: int) -> List[Request]:
    """``count`` requests: each picks a cell by FLEET_CELL_WEIGHTS, then a
    new program of that cell at NEW_SHARE or a Zipf-like repeat of one.

    Drawing the cell first keeps the cell mix (Java files are about twice
    the size of JavaScript ones) the same from seed to seed.
    """
    rng = random.Random(seed)
    pools = {name: iter(files) for name, files in _file_pools(seed).items()}
    seen: Dict[str, List[Request]] = {name: [] for name in FLEET_CELLS}
    cumulative: Dict[str, List[float]] = {name: [] for name in FLEET_CELLS}
    requests: List[Request] = []
    for _ in range(count):
        name = rng.choices(FLEET_CELLS, FLEET_CELL_WEIGHTS)[0]
        cell_seen, cell_cumulative = seen[name], cumulative[name]
        request = None
        if not cell_seen or rng.random() < NEW_SHARE:
            source = next(pools[name], None)
            if source is not None:
                top = 0
                if CELLS[name].target_language is None and rng.random() < TOP_SHARE:
                    top = TOP_K
                request = Request(name, source, top)
                cell_seen.append(request)
                weight = 1.0 / len(cell_seen) ** ZIPF_EXPONENT
                cell_cumulative.append((cell_cumulative[-1] if cell_cumulative else 0.0) + weight)
        if request is None:
            pick = rng.random() * cell_cumulative[-1]
            index = min(bisect.bisect_right(cell_cumulative, pick), len(cell_seen) - 1)
            request = cell_seen[index]
        requests.append(request)
    return requests


def poisson_schedule(seed: int, rate: float, seconds: float) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process at ``rate`` per second,
    conditioned on its expected count.

    Given their number, Poisson arrivals in a window are uniform order
    statistics; fixing the count removes the run-to-run swing in offered
    load without changing the arrival pattern's burstiness.
    """
    rng = random.Random(seed * 7919 + 1)
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))
