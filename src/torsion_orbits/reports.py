"""Structured results for verification runs.

Every checker in this package returns a :class:`VerificationReport`: a pass
flag, the worst residual seen, one record per trial, and an echo of the
configuration that produced it.  Reports serialize to JSON losslessly, and two
runs with the same configuration produce byte-identical JSON apart from the
wall-time field.  ``to_json`` prints a report from a fixed skeleton and
per-trial templates with sorted keys, byte for byte what
``json.dumps(..., sort_keys=True, indent=2)`` prints, which the tests keep
as its oracle.  A passed trial with finite float residuals prints through
one ``%``-template per residual key order, with its ``inputs`` dict
encoded by ``json.dumps`` once per object; ``json.dumps`` itself prints
every other trial whole (failed, rejected, seedless, or with other
residuals), the config and the details.

``run_stacked_trials`` is the one engine of every sweep and census: trial
i draws from a Generator in the state of ``np.random.default_rng(seed +
i)``, as it always has, so every same-seed output is unchanged.  The
states of a whole run come from one vectorized pass over numpy's own
seeding (the ``SeedSequence`` hash, then PCG64's srandom step), set in
turn on one reused Generator; a draw must therefore not keep the
Generator it is given.  The engine evaluates the trials in stacks of at
most ``STACK_CAP`` that share a key, takes each stack's membership
residuals once, and raises the error of a run's earliest failing trial.
``members_only`` adapts a check that is defined on group members alone.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .groups import membership_error, membership_residuals, positive_int

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
        for byte, printed from ``_REPORT_JSON`` with each trial from
        ``_TrialPrinter``.  The config and details are encoded by
        ``json.dumps`` and re-indented."""
        printer = _TrialPrinter()
        trials = [printer.trial(t) for t in self.trials]
        return _REPORT_JSON.format(
            check=json.dumps(self.check),
            config=_json_nested(self.config, "  "),
            details=_json_nested(self.details, "  "),
            passed=json.dumps(self.passed),
            trials=("[\n" + ",\n".join(trials) + "\n  ]") if trials else "[]",
            wall_time_s=json.dumps(self.wall_time_s),
            worst_residual=json.dumps(self.worst_residual))

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


#: The encoder of ``json.dumps(..., sort_keys=True, indent=2)``, built once.
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def _json_nested(value, pad: str) -> str:
    # any value as json.dumps(indent=2) prints it with its first line at
    # indent ``pad``; JSON strings hold no raw newline, so each break is
    # a line of the layout
    return _ENCODER.encode(value).replace("\n", "\n" + pad)


def _json_list(texts: list, pad: str) -> str:
    # a list of printed items as json.dumps(indent=2) prints it with its
    # closing bracket at indent ``pad``: "[]" when it is empty
    if not texts:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(texts) + f"\n{pad}]"


#: Indents of a trial's fields and of the values of its dicts.
_FIELD_PAD, _VALUE_PAD = " " * 6, " " * 8


class _TrialPrinter:
    """The trials of one ``to_json`` call, each at its depth in the report.

    A passed trial with an int index and seed, string digest, note and
    status, and finite float residuals under string keys prints through
    the ``%``-template of its residual key order (``_trial_template``).
    Per call, each such ``inputs`` dict object and each of those strings
    is encoded once: the sweeps share them between trials.  Every other
    trial (failed, rejected, seedless, or with other residuals) is
    ``json.dumps`` of its ``to_dict()``, re-indented."""

    def __init__(self):
        self.texts, self.inputs, self.templates = {}, {}, {}

    def trial(self, t) -> str:
        order = tuple(t.residuals)
        if order not in self.templates:
            self.templates[order] = _trial_template(order)
        template = self.templates[order]
        if (template is not None and t.passed is True
                and type(t.index) is int and type(t.seed) is int
                and type(t.digest) is type(t.note) is type(t.status) is str):
            text, values = template
            values = values(t.residuals)
            if (all(type(v) is float for v in values)
                    and math.isfinite(sum(values))):
                inputs = self.inputs.get(id(t.inputs))
                if inputs is None:
                    inputs = self.inputs[id(t.inputs)] = _json_nested(
                        t.inputs, _FIELD_PAD)
                return text % (self.text(t.digest), t.index, inputs,
                               self.text(t.note), *values, t.seed,
                               self.text(t.status))
        return "    " + _json_nested(t.to_dict(), "    ")

    def text(self, value: str) -> str:
        text = self.texts.get(value)
        if text is None:
            text = self.texts[value] = json.dumps(value)
        return text


def _trial_template(order: tuple):
    """``(text, values)`` for a residual key order: ``text`` is
    ``_TRIAL_JSON`` of a passed trial with the sorted keys inlined, to be
    filled by ``%`` with the digest, index, inputs and note texts, the
    residual values (printed by ``%r``, which is ``float.__repr__`` for a
    float) and the seed and status texts; ``values(residuals)`` gives the
    values in sorted key order.  None for an empty dict or one with a
    non-string key."""
    if not order or not all(type(k) is str for k in order):
        return None
    keys = sorted(order)
    items = ",\n".join(f"{_VALUE_PAD}{json.dumps(k).replace('%', '%%')}: %r"
                       for k in keys)
    text = _TRIAL_JSON.format(
        digest="%s", index="%d", inputs="%s", note="%s", passed="true",
        residuals="{\n" + items + "\n" + _FIELD_PAD + "}", seed="%d",
        status="%s")
    values = operator.itemgetter(*keys)
    return text, values if len(keys) > 1 else lambda r: (values(r),)


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


#: Trials evaluated as one stack, at most: the one cap of every census and
#: sweep.
STACK_CAP = 4096

#: numpy's SeedSequence hash constants (NEP 19 keeps them stable): the
#: entropy hashmix, the output hashmix and the pool mix.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_pools(columns):
    """``SeedSequence(s).pool`` of many seeds s at once: ``columns`` holds
    their 32-bit words, least significant first, as uint32 arrays, at
    least the pool's four of them (a zero word pads a short seed, as
    ``SeedSequence`` pads it).  Arrays wrap silently where numpy scalars
    would warn."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_MULT_L - y * _MIX_MULT_R
        return value ^ value >> 16

    pool = [hashmix(column) for column in columns[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for column in columns[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(column))
    return pool


def _pcg_states(start, count, width):
    """PCG64 ``(state, inc)`` of the seeds start + i, i < count, that all
    fit in ``width`` >= 4 words of 32 bits.  The pool's
    ``generate_state(4, uint64)`` gives the high and low words of seed128
    and then of initseq; PCG64's srandom step, on Python ints, sets
    inc = 2 initseq + 1 and state = ((inc + seed128) MULT + inc), both
    mod 2**128."""
    offset, columns = np.arange(count, dtype=np.uint64), []
    for k in range(width):
        total = offset + (start >> 32 * k & _MASK32)
        columns.append((total & _MASK32).astype(np.uint32))
        offset = total >> 32
    pool, const, words = _seed_pools(columns), _INIT_B, []
    for k in range(8):
        value = pool[k % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        words.append((value ^ value >> 16).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        (words[k] | words[k + 1] << 32).tolist() for k in range(0, 8, 2))
    for a, b, c, d in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        yield ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc


def _trial_states(seed, count) -> list:
    """The PCG64 ``(state, inc)`` of ``np.random.default_rng(seed + i)``
    for each i < count, from one vectorized hash per seed width: seeds
    below 2**128 hash as four words, and a wider seed's extra words take
    the pool's second mixing loop, so a run is cut where the width
    grows.  A negative seed raises ValueError, as ``default_rng`` does."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    states, end = [], seed + count
    width = max(4, -(-seed.bit_length() // 32))
    while seed < end:
        stop = min(end, 1 << 32 * width)
        states.extend(_pcg_states(seed, stop - seed, width))
        seed, width = stop, width + 1
    return states


def _trial_ints(count, seed) -> tuple:
    """(count, seed) of a seeded run as the Python ints its config echoes
    and its trials number their seeds from: ``positive_int`` of the count
    and ``operator.index`` of the seed, so a numpy integer prints as
    JSON."""
    return positive_int(count, "trial count"), operator.index(seed)


def run_stacked_trials(check, count, seed, draw, build, records, config,
                       worst_residual=None):
    """Run ``count`` seeded trials as stacks and assemble their report.

    ``draw(rng)`` takes trial i's inputs from a numpy Generator whose
    state is that of ``np.random.default_rng(seed + i)``, as a tuple whose
    first item is the trial's stack key, a tuple that starts with the
    GroupSpec.  The run computes those states in one pass
    (``_trial_states``) and sets each in turn on one Generator, so a draw
    must not keep the Generator it is given.  The trials that share a key
    form stacks, in trial order and cut at ``STACK_CAP``.  Per stack,
    ``build(key, draws)`` makes the elements g, their membership residuals
    are taken once, and ``records(key, draws, g, residuals)`` gives one
    entry per trial: its TrialRecord fields other than ``index`` and
    ``seed``, or the exception that fails it.  A run raises the exception
    of its earliest failing trial.  So a run is reproducible for a fixed
    seed, and trial i replays alone as trial 0 of a one-trial run at
    seed + i.  ``worst_residual`` names the residual whose maximum is the
    report's worst residual (default: every residual)."""
    count, seed = _trial_ints(count, seed)
    t0 = time.perf_counter()
    bits = np.random.PCG64()
    rng, draws = np.random.Generator(bits), []
    for state, inc in _trial_states(seed, count):
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        draws.append(draw(rng))
    keyed = {}
    for i, d in enumerate(draws):
        keyed.setdefault(d[0], []).append(i)
    fields = [None] * count
    for key, trials in keyed.items():
        for start in range(0, len(trials), STACK_CAP):
            stack = trials[start:start + STACK_CAP]
            stack_draws = [draws[i] for i in stack]
            g = build(key, stack_draws)
            residuals = membership_residuals(key[0], g).tolist()
            for i, f in zip(stack, records(key, stack_draws, g, residuals)):
                fields[i] = f
    failure = next((f for f in fields if isinstance(f, Exception)), None)
    if failure is not None:
        raise failure
    trials = [TrialRecord(index=i, seed=seed + i, **f)
              for i, f in enumerate(fields)]
    worst = None
    if worst_residual is not None:
        worst = max(t.residuals[worst_residual] for t in trials)
    return VerificationReport.from_trials(
        check, trials, config=config, wall_time_s=time.perf_counter() - t0,
        worst_residual=worst)


def fill_kept(kept, evaluate, fill):
    """One entry per flag of ``kept``: where it is set, the entries that
    ``evaluate(keep)`` gives, in order, for the indices ``keep`` of the set
    flags (called only when there are some); elsewhere ``fill(i)``."""
    keep = [i for i, k in enumerate(kept) if k]
    done = iter(evaluate(keep) if keep else ())
    return [next(done) if k else fill(i) for i, k in enumerate(kept)]


def members_only(records):
    """``records`` of ``run_stacked_trials`` applied to a stack's group
    members alone: a non-member gets its ``membership_error``, the error
    ``require_residual`` raises."""
    def members(key, draws, g, residuals):
        errors = [membership_error(key[0], r) for r in residuals]
        return fill_kept(
            [e is None for e in errors],
            lambda keep: records(key, [draws[i] for i in keep], g[keep],
                                 [residuals[i] for i in keep]),
            lambda i: errors[i])

    return members


def strip_wall_time(payload):
    """Copy of a report payload with every wall-time field removed, however
    deeply nested (reproducibility comparisons)."""
    if isinstance(payload, dict):
        return {k: strip_wall_time(v) for k, v in payload.items()
                if k != WALL_TIME_FIELD}
    if isinstance(payload, list):
        return [strip_wall_time(v) for v in payload]
    return payload
