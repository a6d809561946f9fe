"""Structured results for verification runs.

Every checker in this package returns a :class:`VerificationReport`: a pass
flag, the worst residual seen, one record per trial, and an echo of the
configuration that produced it.  Reports serialize to JSON losslessly, and two
runs with the same configuration produce byte-identical JSON apart from the
wall-time field.  ``to_json`` prints a report from a fixed skeleton and one
per-trial template with sorted keys, byte for byte what
``json.dumps(..., sort_keys=True, indent=2)`` prints, which the tests keep
as its oracle; ``json.dumps`` itself encodes only the config, the details,
strings, and the lists and dicts nested in a trial's ``inputs`` or
``residuals``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
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
        """``json.dumps(self.to_dict(), sort_keys=True, indent=2)``, byte
        for byte, printed from ``_REPORT_JSON`` and ``_TRIAL_JSON``.  The
        config and details are encoded by ``json.dumps`` and re-indented;
        a trial's ``inputs`` and ``residuals`` dicts are printed key by key
        (see ``_json_trial_dict``), each distinct ``inputs`` dict once."""
        inputs, layouts, cache = {}, {}, {}
        trials = []
        for t in self.trials:
            if id(t.inputs) not in inputs:
                inputs[id(t.inputs)] = _json_trial_dict(t.inputs, layouts,
                                                        cache)
            trials.append(_TRIAL_JSON.format(
                digest=_json_value(t.digest, _FIELD_PAD, cache),
                index=_json_scalar(t.index),
                inputs=inputs[id(t.inputs)],
                note=_json_value(t.note, _FIELD_PAD, cache),
                passed=_json_scalar(t.passed),
                residuals=_json_trial_dict(t.residuals, layouts, cache),
                seed=_json_scalar(t.seed),
                status=_json_value(t.status, _FIELD_PAD, cache)))
        return _REPORT_JSON.format(
            check=json.dumps(self.check),
            config=_json_nested(self.config, "  "),
            details=_json_nested(self.details, "  "),
            passed=_json_scalar(self.passed),
            trials=("[\n" + ",\n".join(trials) + "\n  ]") if trials else "[]",
            wall_time_s=_json_scalar(self.wall_time_s),
            worst_residual=_json_scalar(self.worst_residual))

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.check}: {verdict} "
                f"(trials={len(self.trials)}, worst_residual={self.worst_residual:.3e})")


#: A report and one of its trials as ``json.dumps(..., sort_keys=True,
#: indent=2)`` prints them, keys sorted, each trial at its depth.
_REPORT_JSON = """\
{{
  "check": {check},
  "config": {config},
  "details": {details},
  "passed": {passed},
  "trials": {trials},
  "wall_time_s": {wall_time_s},
  "worst_residual": {worst_residual}
}}"""
_TRIAL_JSON = """\
    {{
      "digest": {digest},
      "index": {index},
      "inputs": {inputs},
      "note": {note},
      "passed": {passed},
      "residuals": {residuals},
      "seed": {seed},
      "status": {status}
    }}"""


def _json_scalar(value) -> str:
    """A number, bool, None or string as ``json.dumps`` prints it: floats
    (numpy's float64 included) through ``float.__repr__``, non-finite
    ones as NaN, Infinity and -Infinity."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None or type(value) is bool:
        return _JSON_CONSTANTS[value]
    return json.dumps(value)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_nested(value, pad: str) -> str:
    # any value as json.dumps(indent=2) prints it with its first line at
    # indent ``pad``; JSON strings hold no raw newline, so each break is
    # a line of the layout
    text = json.dumps(value, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + pad)


#: Indents of a trial's fields and of the values of its dicts.
_FIELD_PAD, _VALUE_PAD = " " * 6, " " * 8


def _json_value(value, pad: str, cache: dict) -> str:
    """Any value as ``_json_nested(value, pad)`` prints it.  Statuses,
    notes and digests recur across trials, so ``cache`` keeps the text of
    each string."""
    if type(value) is str:
        if value not in cache:
            cache[value] = json.dumps(value)
        return cache[value]
    if isinstance(value, (dict, list, tuple)):
        return _json_nested(value, pad)
    return _json_scalar(value)


def _json_trial_dict(fields: dict, layouts: dict, cache: dict) -> str:
    """A trial's ``inputs`` or ``residuals`` dict as ``_TRIAL_JSON`` nests
    it: key by key in sorted order, each value through ``_json_value``.
    ``layouts`` keeps, per key order, the sorted keys with their printed
    prefixes, or None for an empty dict or one with a non-string key,
    which ``_json_nested`` prints whole."""
    order = tuple(fields)
    if order not in layouts:
        keyed = order and all(type(k) is str for k in order)
        layouts[order] = ([(k, f"{_VALUE_PAD}{json.dumps(k)}: ")
                           for k in sorted(order)] if keyed else None)
    layout = layouts[order]
    if layout is None:
        return _json_nested(fields, _FIELD_PAD)
    items = [prefix + _json_value(fields[k], _VALUE_PAD, cache)
             for k, prefix in layout]
    return "{\n" + ",\n".join(items) + "\n" + _FIELD_PAD + "}"


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
