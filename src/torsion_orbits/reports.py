"""Structured results for verification runs.

Every checker in this package returns a :class:`VerificationReport`: a pass
flag, the worst residual seen, one record per trial, and an echo of the
configuration that produced it.  ``to_json`` loses nothing of ``to_dict``,
and two runs with the same configuration produce byte-identical JSON apart
from the wall-time field.  ``to_json`` prints a report from a fixed
skeleton and per-trial templates with sorted keys, byte for byte what
``json.dumps(..., sort_keys=True, indent=2)`` prints, which the tests keep
as its oracle.  A passed trial with finite float residuals prints through
one ``%``-template per residual key order, with its ``inputs`` dict
encoded by ``json.dumps`` once per object; ``json.dumps`` itself prints
every other trial whole (failed, rejected, seedless, or with other
residuals), the config and the details.

``_float_csv`` prints a 2-D float64 block as CSV lines, every value as
``float.__repr__`` prints it, and yields them one text per pass of at
most ``_CSV_VALUES`` values; it is the one float-CSV writer of the
package (the surface and path exports, the demo-surface CLI), and the
tests keep the ``repr`` join as its oracle.  The shortest digits come
from Schubfach (Giulietti, "The Schubfach way to render doubles") in
numpy uint64, with 64x128-bit products built from 32-bit limbs, and
``repr``'s layout fills one fixed-width uint8 slot per value; one
boolean mask per pass compresses the slots into the text.  Java's Schubfach keeps two digits at least,
which ``repr`` does not: here every value may try one digit fewer, so
k 5e-324 for k in {1, 2, 10, 12, ..., 20} prints with one digit as
``repr`` prints it.  Its tables are built on first use, not at import.

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
import functools
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
    """Report wrapping one trial: the surface checks and ``verify gcd``."""
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


#: Values per pass of ``_float_csv``: a pass's temporaries (a few dozen
#: arrays of that many uint64, and one 41-byte slot per value) stay at a
#: few MB, where one pass over a 100k-point cloud peaks near 130 MiB.
_CSV_VALUES = 5120

_U64 = np.uint64
_LOW32, _LOW63 = _U64(0xFFFFFFFF), _U64((1 << 63) - 1)
#: 10^i for i < 20, every power of ten below 2^64.
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)

#: The slot of one value: an optional '-' and the whole-part digits end
#: at column ``_POINT``, where the '.' is; the fraction digits follow,
#: left-aligned in 17 columns; the exponent and the separator start at
#: ``_SUFFIX``.  A slot's text is at most two runs of its columns.
_POINT = 17
_SUFFIX = _POINT + 18
_SLOT = _SUFFIX + 6


@functools.cache
def _float_tables():
    """The tables of ``_float_csv``, built on first use.

    Per biased exponent e, and at e + 2048 for the irregular spacing of a
    power of two (c = 2^52, e > 1): Schubfach's k and h, and the 126-bit g
    of 10^-k as 32-bit limbs of g0 and g1 and g1 itself, g = g1 2^63 + g0
    (Giulietti, "The Schubfach way to render doubles", section 9); the
    ASCII digits of every 4-digit group as one uint32; the exponent and
    separator text of each suffix row (``e+XX`` for a decimal exponent,
    then nan, inf and none, each with ',' and with a newline) and its
    length without the separator; and the slot mask of each (start,
    point end, suffix length)."""
    g = []
    for k in range(-324, 293):  # 10^-k = beta 2^r, 2^125 <= beta < 2^126
        r = ((-k * 913_124_641_741) >> 38) - 125
        g.append((1 << -r) // 10 ** k + 1 if k > 0 else
                 (10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1)
    g = np.array([[x >> 63, x & ((1 << 63) - 1)] for x in g], np.uint64).T
    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
    irregular = np.repeat([0, 1], 2048)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1, g0 = g[:, k + 324]
    limbs = np.stack([g0 & _LOW32, g0 >> _U64(32), g1 & _LOW32,
                      g1 >> _U64(32), g1])
    digits = np.indices((10,) * 4).reshape(4, -1).T + 48
    ascii4 = digits.astype(np.uint8, order="C").view("<u4").ravel()
    texts = [f"e{e:+03d}" for e in range(-324, 309)] + ["nan", "inf", ""]
    suffixes = np.frombuffer("".join(
        (text + sep).ljust(6, "\0") for text in texts for sep in ",\n"
    ).encode(), np.uint8).reshape(-1, 6)
    lengths = np.repeat([len(t) for t in texts], 2)
    col = np.arange(_SLOT)
    start = np.arange(_POINT + 1)[:, None, None, None]
    end = np.arange(_POINT, _SUFFIX + 1)[None, :, None, None]
    length = np.arange(6)[None, None, :, None]
    masks = ((col >= start) & (col < end)
             | (col >= _SUFFIX) & (col <= _SUFFIX + length))
    return (k, h, limbs, ascii4, suffixes, lengths,
            masks.reshape(-1, _SLOT))


def _mulhi(a0, a1, b0, b1):
    # the high 64 bits of a b for a < 2^63 and b < 2^60, given as 32-bit
    # limbs: no partial sum reaches 2^64
    mid = a1 * b0 + a0 * b1 + ((a0 * b0) >> _U64(32))
    return a1 * b1 + (mid >> _U64(32))


def _shortest(bits):
    """Schubfach (Giulietti, section 9, figure 7) on uint64 arrays: for the
    float64 bits of finite nonzero values, s and k with s 10^k the decimal
    of fewest digits that rounds to each value, the closest one when
    several do, an even s on a tie; s may end in zeros.  Java's original
    keeps two digits at least (it scales c < 3 by ten, and tries one digit
    fewer only from s >= 100), so it differs from ``repr`` on k 5e-324
    for k in {1, 2, 10, 12, 14, 16, 18, 20}; here no c is scaled and
    every s tries one digit fewer, which prints those with ``repr``'s one
    digit (5e-324, 1e-323, 5e-323, ...).  Other bits give unspecified
    output."""
    ks, hs, limbs, *_ = _float_tables()
    e = (bits >> _U64(52)) & _U64(2047)
    t = bits & _U64((1 << 52) - 1)
    irregular = (t == 0) & (e > 1)
    key = (e + irregular * _U64(2048)).astype(np.intp)
    c = t | (e != 0) * _U64(1 << 52)
    cb = c << _U64(2)
    # c 2^q and the ends of its rounding interval, scaled by 4 2^h
    cp = np.stack([cb, cb - _U64(2) + irregular, cb + _U64(2)]) << hs[key]
    g0l, g0h, g1l, g1h, g1 = limbs.take(key, axis=1)
    c0, c1 = cp & _LOW32, cp >> _U64(32)
    # round to odd of cp g 2^-127, as Java's rop
    z = ((g1 * cp) >> _U64(1)) + _mulhi(g0l, g0h, c0, c1)
    vb, vbl, vbr = (_mulhi(g1l, g1h, c0, c1) + (z >> _U64(63))
                    | ((z & _LOW63) + _LOW63) >> _U64(63))
    odd = c & _U64(1)
    vbl += odd  # the interval is closed for an even c, open for an odd one
    vbr -= odd
    s = vb >> _U64(2)
    sp = s // _U64(10) * _U64(10)
    upin = vbl <= sp << _U64(2)
    wpin = (sp + _U64(10)) << _U64(2) <= vbr
    uin = vbl <= s << _U64(2)
    win = (s + _U64(1)) << _U64(2) <= vbr
    mid = (s << _U64(2)) + _U64(2)
    lower = (vb < mid) | ((vb == mid) & ((s & _U64(1)) == 0))
    shorter = upin != wpin  # one digit fewer: sp or sp + 10, over ten
    s = np.where(shorter, sp // _U64(10) + wpin,
                 s + ~np.where(uin != win, uin, lower))
    return s, ks[key] + shorter


def _quads(x, count):
    # the low ``count`` 4-digit groups of each x < 10^(4 count), low first
    x = x.view(np.int64)
    for _ in range(count - 1):
        q = x // 10000
        yield x - q * 10000
        x = q
    if count:
        yield x


def _float_csv(block):
    """The rows of a 2-D float64 block as CSV lines, one text per pass of
    whole rows holding at most ``_CSV_VALUES`` values (one row where a row
    holds more), every value printed as ``float.__repr__`` prints it: the
    passes joined are, byte for byte,
    ``"".join(",".join(map(repr, row)) + "\\n" for row in block.tolist())``,
    which the tests keep as its oracle.  Shortest digits come from
    ``_shortest`` and are laid out by ``repr``'s rules (positional for a
    decimal exponent in [-4, 16), else ``d.ddde±XX``; ``0.0`` and
    ``-0.0``; ``.0`` after an integer; ``nan``, ``inf``)."""
    block = np.asarray(block, dtype=np.float64)
    step = max(1, _CSV_VALUES // block.shape[1])
    for i in range(0, len(block), step):
        yield _float_lines(block[i:i + step])


def _float_lines(block) -> str:
    # each value's text in one slot of a uint8 matrix, the slots' used
    # columns compressed by one boolean mask
    _, _, _, ascii4, suffixes, lengths, masks = _float_tables()
    rows, cols = block.shape
    v = block.ravel()
    bits = v.view(np.uint64)
    s, k = _shortest(bits)
    finite = np.isfinite(v)
    flat = ~finite | (v == 0)  # printed from s = 0: "0.0", or a word
    s[flat], k[flat] = 1, 0
    # strip trailing zeros: only an s one digit shorter has them, at most
    # 15 (any other s would be sp or sp + 10 itself)
    ends = np.flatnonzero(s // _U64(10) * _U64(10) == s)
    if len(ends):
        z, zeros = s[ends], 0
        for t in (8, 4, 2, 1):
            q = z // _POW10[t]
            strip = q * _POW10[t] == z
            z = np.where(strip, q, z)
            zeros = zeros + strip * t
        s[ends] = z
        k[ends] += zeros
    digits = np.searchsorted(_POW10[1:], s, side="right") + 1
    exp = k + digits - 1  # the decimal exponent of the first digit
    s[flat], exp[flat] = 0, 0
    sci = (exp < -4) | (exp >= 16)
    whole = np.where(sci, 1, np.maximum(exp + 1, 0))  # digits before '.'
    frac = digits - whole  # digits after it; < 0 when zeros pad the whole
    shift = _POW10[np.maximum(frac, 0)]
    x = s * _POW10[np.maximum(-frac, 0)]
    w = x // shift
    f = (x - w * shift) * _POW10[17 - np.maximum(frac, 0)]
    f1 = f // _U64(10 ** 16)
    slot = np.empty((len(v), _SLOT), np.uint8)
    # the whole digits as wide as the widest whole part (at least the "0"
    # of "0.000d"), the fraction digits after the first as wide as the
    # longest fraction
    wide = max(1, -(-int(whole.max()) // 4))
    long = max(0, -(-(int(frac.max()) - 1) // 4))
    for at, value, count in ((_POINT - 4 * wide, w, wide),
                             (_POINT + 2, (f - f1 * _U64(10 ** 16))
                              // _POW10[16 - 4 * long], long)):
        words = slot[:, at:at + 4 * count].view("<u4")
        for j, quad in enumerate(_quads(value, count)):
            words[:, count - 1 - j] = ascii4[quad]
    slot[:, _POINT] = 46
    slot[:, _POINT + 1] = f1 + _U64(48)
    lead = np.where(sci, 0, np.maximum(-exp - 1, 0))  # zeros after "0."
    shifted = np.flatnonzero(lead)
    slot[shifted, _POINT] = 48
    slot[shifted, _POINT - lead[shifted]] = 46
    neg = (bits >> _U64(63)).astype(bool)
    frac = np.maximum(frac, ~sci)  # "1.0", "1e+16"
    end = _POINT + (frac > 0) + frac
    start = _POINT - np.maximum(whole, 1) - lead - neg
    suffix = np.where(sci, exp + 324, 635)
    if not finite.all():
        word = ~finite
        suffix[word] = 633 + np.isinf(v[word])
        neg[np.isnan(v)] = False
        end[word] = _POINT
        start[word] = _POINT - neg[word]
    slot.ravel()[(np.arange(len(v)) * _SLOT + start)[neg]] = 45
    sep = np.zeros(len(v), np.intp)
    sep[cols - 1::cols] = 1
    suffix = suffix * 2 + sep
    slot[:, _SUFFIX:] = suffixes.take(suffix, axis=0)
    mask = masks.take(((start * (_SUFFIX - _POINT + 1) + end - _POINT) * 6
                       + lengths[suffix]), axis=0)
    return slot[mask].tobytes().decode("ascii")
