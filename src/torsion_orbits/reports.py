"""Structured results for verification runs.

Every checker in this package returns a :class:`VerificationReport`: a pass
flag, the worst residual seen, one record per trial, and an echo of the
configuration that produced it.  Reports serialize to JSON losslessly, and two
runs with the same configuration produce byte-identical JSON apart from the
wall-time field.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

# Field stripped when comparing reports for reproducibility.
WALL_TIME_FIELD = "wall_time_s"


def inputs_digest(inputs: dict) -> str:
    """Short stable digest of a trial's input description."""
    blob = json.dumps(inputs, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class TrialRecord:
    """Outcome of a single trial inside a verification run.

    ``status`` is ``"ok"`` for a trial that ran, ``"rejected"`` when the
    inputs violated a precondition (a rejected trial is not evidence against
    the property being checked, and it fails the report).
    """

    index: int
    seed: int | None
    inputs: dict
    residuals: dict
    passed: bool
    status: str = "ok"
    note: str = ""
    digest: str = ""

    def __post_init__(self):
        if not self.digest:
            self.digest = inputs_digest(self.inputs)

    def to_dict(self) -> dict:
        return {"index": self.index, "seed": self.seed,
                "inputs": dict(self.inputs), "residuals": dict(self.residuals),
                "passed": self.passed, "status": self.status,
                "note": self.note, "digest": self.digest}


@dataclass
class VerificationReport:
    check: str
    passed: bool
    worst_residual: float
    trials: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @classmethod
    def from_trials(cls, check, trials, config=None, details=None,
                    wall_time_s=0.0, worst_residual=None):
        """Assemble a report; ``passed`` is the conjunction over trials."""
        trials = list(trials)
        if worst_residual is None:
            values = [float(v) for t in trials for v in t.residuals.values()]
            worst_residual = max(values) if values else 0.0
        return cls(
            check=check,
            passed=all(t.passed and t.status == "ok" for t in trials),
            worst_residual=float(worst_residual),
            trials=trials,
            config=dict(config or {}),
            details=dict(details or {}),
            wall_time_s=float(wall_time_s),
        )

    def to_dict(self) -> dict:
        """Plain-data copy: config and details copied deeply, and each
        trial with fresh ``inputs`` and ``residuals`` dicts."""
        return {"check": self.check, "passed": self.passed,
                "worst_residual": self.worst_residual,
                "trials": [t.to_dict() for t in self.trials],
                "config": copy.deepcopy(self.config),
                "details": copy.deepcopy(self.details),
                "wall_time_s": self.wall_time_s}

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        data = dict(data)
        data["trials"] = [TrialRecord(**t) for t in data.get("trials", [])]
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.check}: {verdict} "
                f"(trials={len(self.trials)}, worst_residual={self.worst_residual:.3e})")


def single_trial_report(check, inputs, residuals, passed, config=None,
                        details=None, status="ok", note="", seed=None,
                        wall_time_s=0.0, worst_residual=None):
    """Report wrapping one trial; used by the one-shot checkers."""
    trial = TrialRecord(index=0, seed=seed, inputs=dict(inputs),
                        residuals=dict(residuals), passed=passed,
                        status=status, note=note)
    return VerificationReport.from_trials(
        check, [trial], config=config, details=details,
        wall_time_s=wall_time_s, worst_residual=worst_residual)


def inputs_memo():
    """``memo(key, build) -> (inputs, digest)``: builds and digests the
    inputs of each distinct key once per run, so trials that share their
    inputs share one dict and one digest."""
    memo = {}

    def get(key, build):
        if key not in memo:
            inputs = build()
            memo[key] = inputs, inputs_digest(inputs)
        return memo[key]

    return get


def run_stacked_trials(check, count, seed, draw, evaluate, config,
                       worst_residual=None):
    """Run ``count`` seeded trials, each split in two so that a check can
    evaluate its trials as stacks, and assemble their report.

    ``draw(rng)`` takes trial i's inputs from a numpy Generator seeded by
    seed + i, and ``evaluate`` maps the list of every draw, in trial order,
    to the list of their TrialRecord fields other than ``index`` and
    ``seed``.  A run is thus reproducible for a fixed seed, and trial i
    replays alone as trial 0 of a one-trial run at seed + i.
    ``worst_residual`` names the residual whose maximum is the report's
    worst residual (default: every residual)."""
    if count < 1:
        raise ValueError(f"trial count must be >= 1, got {count}")
    t0 = time.perf_counter()
    draws = [draw(np.random.default_rng(seed + i)) for i in range(count)]
    records = [TrialRecord(index=i, seed=seed + i, **fields)
               for i, fields in enumerate(evaluate(draws))]
    worst = None
    if worst_residual is not None:
        worst = max(t.residuals[worst_residual] for t in records)
    return VerificationReport.from_trials(
        check, records, config=config, wall_time_s=time.perf_counter() - t0,
        worst_residual=worst)


def strip_wall_time(payload):
    """Copy of a report payload with every wall-time field removed, however
    deeply nested (reproducibility comparisons)."""
    if isinstance(payload, dict):
        return {k: strip_wall_time(v) for k, v in payload.items()
                if k != WALL_TIME_FIELD}
    if isinstance(payload, list):
        return [strip_wall_time(v) for v in payload]
    return payload
