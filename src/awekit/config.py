"""Run configuration: one JSON file with per-stage sections, CLI-flag
overrides, and a stable content hash for provenance."""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__, codec
from .corpus import CorpusSpec
from .errors import ValidationError
from .matcher import WindowConfig
from .model import ModelSettings

VALID_SYSTEMS = ("awe", "sdtw")
VALID_FUSIONS = ("none", "mean", "dtw")


@dataclass
class RunConfig:
    workdir: Path = Path("runs/default")
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    model: ModelSettings = field(default_factory=ModelSettings)
    window: WindowConfig = field(default_factory=WindowConfig)
    system: str = "awe"
    fusion: str = "mean"
    templates_per_keyword: int = 5

    def __post_init__(self):
        self.workdir = Path(self.workdir)
        if self.system not in VALID_SYSTEMS:
            raise ValidationError(f"system must be one of {VALID_SYSTEMS}, got {self.system!r}")
        if self.fusion not in VALID_FUSIONS:
            raise ValidationError(f"fusion must be one of {VALID_FUSIONS}, got {self.fusion!r}")
        if self.templates_per_keyword < 1:
            raise ValidationError("templates_per_keyword must be >= 1")

    # fixed workdir layout
    @property
    def corpus_dir(self) -> Path:
        return self.workdir / "corpus"

    @property
    def model_path(self) -> Path:
        return self.workdir / "models" / "model.awem"

    @property
    def train_report_path(self) -> Path:
        return self.workdir / "models" / "train_report.json"

    @property
    def results_path(self) -> Path:
        return self.workdir / "results" / "results.jsonl"

    @property
    def report_path(self) -> Path:
        return self.workdir / "reports" / "metrics.json"

    @classmethod
    def load(cls, path) -> "RunConfig":
        data = codec.read_json(Path(path), ValidationError, f"config {path} is not valid JSON")
        return codec.load(cls, data)

    def config_hash(self) -> str:
        # workdir is a storage location, not part of the run's semantics:
        # the same config in two directories must hash (and rerun) identically
        payload = codec.dump(self)
        del payload["workdir"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def provenance(self) -> dict:
        return {"config_hash": self.config_hash(), "tool_version": __version__}
