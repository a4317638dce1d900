"""Seeded workload inputs.

The benchmark generates every input itself from ``--seed``; the program
only ever receives the resulting datasets and schedules.  Shapes and
the serve platform/classifier cycle are fixed, so a seed changes
values, never the amount of work.  The ``check`` input is the
frozen source snapshot in ``snapshot/``, verified by digest before use.
"""

from __future__ import annotations

import hashlib
import shutil
import tarfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CAMPAIGN_DATASETS",
    "CAMPAIGN_FEATURE_CAP",
    "CAMPAIGN_SIZE_CAP",
    "SERVE_CYCLE",
    "SNAPSHOT_ARCHIVE",
    "SNAPSHOT_SHA256",
    "ServeSession",
    "campaign_seeds",
    "derive_seed",
    "extract_snapshot",
    "serve_session",
]

#: The campaign's slice of the program's corpus (``repro.datasets``):
#: the six datasets ``load_corpus(max_datasets=6, random_state=0)``
#: selects, one per domain, with 2-90 features, categorical columns and
#: missing values.  A run reseeds these specs and loads them capped at
#: ``CAMPAIGN_SIZE_CAP`` rows and ``CAMPAIGN_FEATURE_CAP`` features, so
#: a seed changes their values but never their shapes.
CAMPAIGN_DATASETS = (
    "synthetic/linear_imbalanced", "life_science/life_31",
    "computer_games/comp_04", "social_science/soci_02",
    "physical_science/phys_07", "financial_business/fina_01",
)
CAMPAIGN_SIZE_CAP = 150
CAMPAIGN_FEATURE_CAP = 30

#: Serve sessions walk this fixed (platform, classifier) cycle: all seven
#: platforms and every classifier family they expose.  ``None`` is a
#: black-box platform's own choice.
SERVE_CYCLE = (
    ("abm", None), ("google", None), ("amazon", "LR"),
    ("predictionio", "NB"), ("predictionio", "DT"),
    ("bigml", "BAG"), ("bigml", "RF"),
    ("microsoft", "SVM"), ("microsoft", "AP"), ("microsoft", "BPM"),
    ("microsoft", "BST"), ("microsoft", "DJ"),
    ("local", "LDA"), ("local", "KNN"), ("local", "MLP"), ("local", "LR"),
)

SNAPSHOT_ARCHIVE = Path(__file__).resolve().parent / "snapshot" / "repro-src.tar.gz"
#: Digest of the archive above; a mismatch fails the check gate.
SNAPSHOT_SHA256 = "56eacc377815a1c04c636db8f461df8efbfcdd83db63de98f9af18304e359cad"


def derive_seed(seed: int, label: str) -> int:
    """Deterministic sub-seed from the run seed and a label (crc32)."""
    return zlib.crc32(f"{seed}:perfbench:{label}".encode()) % (2**31)


def campaign_seeds(seed: int) -> dict:
    """``{dataset name: generation seed}`` of the campaign corpus slice."""
    return {name: derive_seed(seed, f"campaign:{name}") for name in CAMPAIGN_DATASETS}


@dataclass(frozen=True)
class ServeSession:
    client: int
    index: int
    platform: str
    classifier: str | None
    X: np.ndarray
    y: np.ndarray
    queries: tuple

    @property
    def key(self) -> str:
        return f"c{self.client}:s{self.index:04d}"


def serve_session(seed: int, client: int, index: int, *, clients: int,
                  rows: int, features: int, predicts: int,
                  query_rows: int) -> ServeSession:
    """Session ``index`` of client ``client``.

    Clients start at evenly spaced offsets of :data:`SERVE_CYCLE`, so
    concurrent sessions usually address different platforms; when they
    meet, one waits on the other's platform lock, which the tail shows.
    """
    offset = client * len(SERVE_CYCLE) // clients
    platform, classifier = SERVE_CYCLE[(offset + index) % len(SERVE_CYCLE)]
    rng = np.random.default_rng(derive_seed(seed, f"serve:{client}:{index}"))
    X = rng.standard_normal((rows, features))
    y = (X[:, 0] + 0.5 * X[:, -1] + 0.3 * rng.standard_normal(rows) > 0.0)
    y = y.astype(np.intp)
    y[:2] = (0, 1)
    queries = tuple(rng.standard_normal((query_rows, features))
                    for _ in range(predicts))
    return ServeSession(client, index, platform, classifier, X, y, queries)


def extract_snapshot(target: Path) -> Path:
    """Verify and unpack the frozen source tree; returns the analysis root.

    The root holds ``src/repro`` and an empty ``pyproject.toml`` marker,
    so the analyzers find a project root with no context directories.
    """
    digest = hashlib.sha256(SNAPSHOT_ARCHIVE.read_bytes()).hexdigest()
    if digest != SNAPSHOT_SHA256:
        raise RuntimeError(
            f"snapshot archive digest {digest} != pinned {SNAPSHOT_SHA256}"
        )
    stamp = target / f".sha256-{digest}"
    if not stamp.exists():
        if target.exists():
            shutil.rmtree(target)
        target.mkdir(parents=True)
        with tarfile.open(SNAPSHOT_ARCHIVE, "r:gz") as archive:
            archive.extractall(target, filter="data")
        (target / "pyproject.toml").write_text("")
        stamp.write_text("")
    return target
