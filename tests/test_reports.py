"""Report plumbing: digests, round-trips, wall-time stripping, and the
template JSON writer, checked against ``json.dumps``."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsion_orbits import reports
from torsion_orbits.curves import (curve_kernel_outcomes,
                                   product_identity_outcomes,
                                   tangent_outcomes)
from torsion_orbits.groups import (TOL_MEMBERSHIP, GroupSpec, algebra_matrix,
                                   membership_error, random_algebra,
                                   random_element, require_residual)
from torsion_orbits.reports import (TrialRecord, VerificationReport,
                                    inputs_digest, members_only,
                                    run_stacked_trials, single_trial_report,
                                    strip_wall_time)
from torsion_orbits.subspaces import (kernel_image_outcomes,
                                      zero_intersection_outcomes)
from torsion_orbits.surface import (sample_surface, singular_locus_scan,
                                    tangent_cone_bound_check)
from torsion_orbits.sweeps import (ALL_FAMILY_SPECS, COMPACT_SWEEP_SPECS,
                                   cluster_census, sl2_component_census,
                                   sweep_curve_identities, sweep_density,
                                   sweep_kernel_image, sweep_tangent,
                                   sweep_zero_intersection)
from torsion_orbits.torsion import catalog_components, gcd_intersection_check


def test_inputs_digest_is_stable_and_order_free():
    a = inputs_digest({"x": 1, "y": "two"})
    b = inputs_digest({"y": "two", "x": 1})
    assert a == b
    assert len(a) == 12
    assert a != inputs_digest({"x": 2, "y": "two"})


def test_trial_record_autodigest():
    t = TrialRecord(index=0, seed=3, inputs={"n": 4}, residuals={}, passed=True)
    assert t.digest == inputs_digest({"n": 4})


def test_report_pass_is_conjunction():
    ok = TrialRecord(index=0, seed=0, inputs={}, residuals={"r": 0.1}, passed=True)
    bad = TrialRecord(index=1, seed=1, inputs={}, residuals={"r": 0.7}, passed=False)
    rej = TrialRecord(index=2, seed=2, inputs={}, residuals={}, passed=True,
                      status="rejected")
    assert VerificationReport.from_trials("c", [ok]).passed
    assert not VerificationReport.from_trials("c", [ok, bad]).passed
    # rejected trials are not evidence, so they fail the report too
    assert not VerificationReport.from_trials("c", [ok, rej]).passed
    assert VerificationReport.from_trials("c", [ok, bad]).worst_residual == 0.7


def test_report_json_round_trip_lossless():
    rep = single_trial_report("check", {"k": 1}, {"res": 1e-12}, True,
                              config={"seed": 7}, details={"note": "x"},
                              wall_time_s=0.25)
    assert json.loads(rep.to_json()) == rep.to_dict()


def test_report_json_is_canonical():
    rep = single_trial_report("check", {"b": 2, "a": 1}, {}, True)
    doc = json.loads(rep.to_json())
    assert list(doc.keys()) == sorted(doc.keys())


def test_strip_wall_time_recurses():
    payload = {"wall_time_s": 1.0,
               "checks": [{"wall_time_s": 2.0, "passed": True}],
               "nested": {"wall_time_s": 3.0, "keep": 1}}
    out = strip_wall_time(payload)
    assert out == {"checks": [{"passed": True}], "nested": {"keep": 1}}
    # original untouched
    assert payload["wall_time_s"] == 1.0


def test_summary_line_mentions_verdict():
    rep = single_trial_report("mycheck", {}, {"r": 0.5}, False)
    line = rep.summary_line()
    assert "mycheck" in line and "FAIL" in line


#: Two stack keys that the engine's fake draws interleave in trial order.
ENGINE_KEYS = ((GroupSpec("U", 1), 2), (GroupSpec("SO", 2), 3))


def engine_draw(rng):
    return ENGINE_KEYS[int(rng.integers(2))], float(rng.uniform())


def run_engine(count, seed, failing=()):
    """A fake run: each trial's element is its group's identity, and the
    trials whose draw is in ``failing`` fail.  Returns the report and the
    (key, draws) of each build and records call."""
    builds, calls = [], []

    def build(key, stack):
        builds.append((key, stack))
        return np.stack([key[0].identity() for _ in stack])

    def records(key, stack, g, residuals):
        calls.append((key, stack))
        assert len(g) == len(stack) and residuals == [0.0] * len(stack)
        return [ValueError(f"trial {d[1]!r} failed") if d in failing else
                {"inputs": {"u": d[1]}, "residuals": {"r": d[1]},
                 "passed": True} for d in stack]

    report = run_stacked_trials("fake", count, seed, engine_draw, build,
                                records, {})
    return report, builds, calls


def test_engine_stacks_by_key_in_trial_order(monkeypatch):
    monkeypatch.setattr(reports, "STACK_CAP", 3)
    count, seed = 11, 5
    draws = [engine_draw(np.random.default_rng(seed + i))
             for i in range(count)]
    keys = [d[0] for d in draws]
    assert set(keys) == set(ENGINE_KEYS)
    assert keys[keys.index(keys[0], 1) - 1] != keys[0]  # interleaved
    report, builds, calls = run_engine(count, seed)
    # stacks of at most 3 trials of one key, in trial order, each built
    # and recorded once
    want = []
    for key in dict.fromkeys(keys):
        trials = [d for d in draws if d[0] == key]
        want += [(key, trials[i:i + 3]) for i in range(0, len(trials), 3)]
    assert builds == calls == want
    assert max(len(stack) for _, stack in builds) == 3
    assert [t.index for t in report.trials] == list(range(count))
    assert [t.seed for t in report.trials] == [seed + i for i in range(count)]
    assert [t.inputs["u"] for t in report.trials] == [d[1] for d in draws]
    assert report.worst_residual == max(d[1] for d in draws)


def test_engine_raises_the_earliest_failing_trial(monkeypatch):
    monkeypatch.setattr(reports, "STACK_CAP", 3)
    count, seed = 11, 5
    draws = [engine_draw(np.random.default_rng(seed + i))
             for i in range(count)]
    # the earliest failure sits in the second key's stack, which is built
    # after a later failure in the first key's last stack
    first = next(d for d in draws if d[0] != draws[0][0])
    later = [d for d in draws if d[0] == draws[0][0]][-1]
    assert draws.index(first) < draws.index(later)
    _, builds, _ = run_engine(count, seed)
    built = [stack for _, stack in builds]
    assert built.index(next(s for s in built if later in s)) < \
        built.index(next(s for s in built if first in s))
    with pytest.raises(ValueError, match=re.escape(f"trial {first[1]!r}")):
        run_engine(count, seed, failing=(later, first))


def engine_states(count, seed):
    """The Generator state each trial of a fake run draws from, and the
    Generator objects the draws were given."""
    states, generators = [], set()

    def draw(rng):
        generators.add(id(rng))
        states.append(rng.bit_generator.state)
        return engine_draw(rng)

    def build(key, stack):
        return np.stack([key[0].identity() for _ in stack])

    def records(key, stack, g, residuals):
        return [{"inputs": {}, "residuals": {}, "passed": True}
                for _ in stack]

    run_stacked_trials("fake", count, seed, draw, build, records, {})
    return states, generators


#: Seed widths where numpy's SeedSequence takes another word: 2**32 and
#: 2**64 pad to the pool's four words, and 2**128 takes a fifth word
#: through the second mixing loop.
SEED_EDGES = (0, 2**31, 2**32, 2**64, 2**96, 2**128, 2**160)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.integers(0, 2**140),
                 st.builds(lambda edge, back: max(edge - back, 0),
                           st.sampled_from(SEED_EDGES), st.integers(1, 12))),
       st.integers(1, 24))
def test_engine_draws_trial_i_from_default_rng_of_seed_plus_i(seed, count):
    states, generators = engine_states(count, seed)
    assert states == [np.random.default_rng(seed + i).bit_generator.state
                      for i in range(count)]
    assert len(generators) == 1  # one Generator per run


@pytest.mark.parametrize("seed,count", [(2**32 - 3, 6), (2**64 - 3, 6),
                                        (2**128 - 3, 6), (2**160 - 1, 2)])
def test_engine_states_straddle_every_seed_width(seed, count):
    states, _ = engine_states(count, seed)
    assert states == [np.random.default_rng(seed + i).bit_generator.state
                      for i in range(count)]


def test_engine_refuses_a_negative_seed_before_any_draw():
    calls = []

    def draw(rng):
        calls.append(rng)
        return engine_draw(rng)

    for seed in (-1, -5):
        with pytest.raises(ValueError, match="non-negative"):
            run_stacked_trials("fake", 8, seed, draw, None, None, {})
    with pytest.raises(ValueError, match="non-negative"):
        np.random.default_rng(-1)
    assert calls == []


def test_no_census_or_sweep_seeds_a_generator_per_trial(monkeypatch):
    # default_rng may only pass a Generator through (random_algebra does)
    default_rng = np.random.default_rng

    def given_generator(seed=None):
        assert isinstance(seed, np.random.Generator), seed
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", given_generator)
    sl2_component_census(6, 40, 3)
    cluster_census(GroupSpec("SU", 3), 3, 40, 3)
    sweep_curve_identities(ALL_FAMILY_SPECS, 4, 40, 3)
    sweep_tangent(ALL_FAMILY_SPECS, 40, 3)
    sweep_density(COMPACT_SWEEP_SPECS, 8, 40, 3)


#: Membership residuals at the decision's boundary: TOL_MEMBERSHIP itself
#: is a member; the next float up, NaN and inf are not.
BOUNDARY_RESIDUALS = [TOL_MEMBERSHIP,
                      float(np.nextafter(TOL_MEMBERSHIP, np.inf)),
                      math.nan, math.inf]


@pytest.mark.parametrize("spec", [GroupSpec("U", 2), GroupSpec("SL2R", 2)],
                         ids=GroupSpec.label)
def test_one_membership_decision_at_its_boundary(spec):
    # the text require_residual raises for each boundary residual, or None
    # where it accepts the residual
    errors = []
    for r in BOUNDARY_RESIDUALS:
        try:
            assert require_residual(spec, r) == r
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    assert errors[0] is None and all(e and "is not in" in e
                                     for e in errors[1:])
    for r, want in zip(BOUNDARY_RESIDUALS, errors):
        error = membership_error(spec, r)
        assert (None if error is None else str(error)) == want
    # members_only on one stack that mixes the cases, each twice: records
    # sees the members alone, in order; a non-member's entry is its error
    residuals = BOUNDARY_RESIDUALS * 2
    draws = [((spec,), i) for i in range(len(residuals))]
    g = np.arange(len(residuals), dtype=float)
    calls = []

    def records(key, stack, members, kept):
        calls.append((stack, members.tolist(), kept))
        return [{"trial": d[1]} for d in stack]

    entries = members_only(records)((spec,), draws, g, residuals)
    keep = [0, len(BOUNDARY_RESIDUALS)]
    assert calls == [([draws[i] for i in keep], [float(i) for i in keep],
                      [TOL_MEMBERSHIP, TOL_MEMBERSHIP])]
    for i, entry in enumerate(entries):
        want = errors[i % len(BOUNDARY_RESIDUALS)]
        if want is None:
            assert entry == {"trial": i}
        else:
            assert isinstance(entry, ValueError) and str(entry) == want, i


# ------------------------------------------------ the template JSON writer
#
# ``to_json`` prints from templates; ``json.dumps(sort_keys=True,
# indent=2)`` of the report's dict is its oracle.


def json_oracle(report):
    return json.dumps(report.to_dict(), sort_keys=True, indent=2)


def _torsion_element(spec, n):
    rep = catalog_components(spec, n)[-1].representative
    h = random_element(spec, 4)
    return h @ rep @ np.linalg.inv(h)


def one_trial(check, outcome, worst=None, **inputs):
    """Report of one element's outcome of a stacked evaluator; ``worst``
    names the residual that is the report's worst residual (default:
    every residual)."""
    return single_trial_report(
        check, inputs, worst_residual=outcome["residuals"].get(worst),
        **outcome)


#: Every check's report, at small trial counts.
CHECK_REPORTS = {
    "lemma31": lambda: sweep_tangent(ALL_FAMILY_SPECS, 12, 1),
    "lemma32": lambda: sweep_curve_identities(COMPACT_SWEEP_SPECS, 6, 12, 1),
    "lemma33": lambda: sweep_kernel_image(COMPACT_SWEEP_SPECS, 6, 12, 1),
    "zero-intersection": lambda: sweep_zero_intersection(
        COMPACT_SWEEP_SPECS, 6, 12, 1),
    "density": lambda: sweep_density(COMPACT_SWEEP_SPECS, 100, 12, 1),
    "gcd": lambda: gcd_intersection_check(GroupSpec("SO", 4), 12, 18),
    "sl2-census": lambda: sl2_component_census(5, 12, 1),
    "cluster-census": lambda: cluster_census(GroupSpec("SU", 3), 4, 12, 1),
    "cluster-census-fail": lambda: cluster_census(GroupSpec("U", 3), 12, 9, 3),
    "kernel-image": lambda: one_trial("kernel-image", kernel_image_outcomes(
        GroupSpec("U", 3), _torsion_element(GroupSpec("U", 3), 4)[None],
        4)[0], "principal_angle", group="U(3)", n=4),
    "kernel-image-rejected": lambda: one_trial(
        "kernel-image", kernel_image_outcomes(
            GroupSpec("U", 3), random_element(GroupSpec("U", 3), 2)[None],
            4)[0], "principal_angle", group="U(3)", n=4),
    "zero-intersection-one": lambda: one_trial(
        "zero-intersection", zero_intersection_outcomes(
            GroupSpec("SO", 4), _torsion_element(GroupSpec("SO", 4), 6)[None],
            6)[0], "intersection_dim", group="SO(4)", n=6),
    "tangent-space": lambda: one_trial("tangent-space", tangent_outcomes(
        GroupSpec("SU", 2), random_element(GroupSpec("SU", 2), 3)[None],
        algebra_matrix(GroupSpec("SU", 2),
                       random_algebra(GroupSpec("SU", 2), 3))[None])[0],
        group="SU(2)"),
    "curve-kernel": lambda: one_trial("curve-kernel", curve_kernel_outcomes(
        GroupSpec("SO", 3), _torsion_element(GroupSpec("SO", 3), 4)[None], 4,
        random_algebra(GroupSpec("SO", 3), 5)[None])[0], "kernel_residual",
        group="SO(3)", n=4),
    "product-identity": lambda: one_trial(
        "product-identity", product_identity_outcomes(
            GroupSpec("SO", 3), _torsion_element(GroupSpec("SO", 3), 4)[None],
            4, algebra_matrix(GroupSpec("SO", 3),
                              random_algebra(GroupSpec("SO", 3), 5))[None],
            [0.3])[0], "product_residual", group="SO(3)", n=4, t=0.3),
    "tangent-cone": lambda: tangent_cone_bound_check(
        sample_surface((0.5, 1.5), 20, 2)),
    "singular-locus": lambda: singular_locus_scan(
        np.linspace(-1.0, 1.0, 5), sample_surface((0.5, 1.5), 5, 2)),
}


@pytest.mark.parametrize("check", sorted(CHECK_REPORTS))
def test_to_json_prints_what_json_dumps_prints(check):
    report = CHECK_REPORTS[check]()
    report.config["cli"] = {"command": "verify", "seed": 1, "fmt": "json"}
    assert report.to_json() == json_oracle(report)


def _record(index, residuals, **fields):
    return TrialRecord(index=index, seed=fields.pop("seed", 10 + index),
                       inputs=fields.pop("inputs", {"k": index}),
                       residuals=residuals, passed=fields.pop("passed", True),
                       **fields)


def test_to_json_prints_non_finite_and_numpy_floats_as_json_dumps_does():
    trials = [_record(0, {"membership": float("nan"), "b": math.inf,
                          "a": -math.inf}),
              _record(1, {"membership": np.float64(0.1),
                          "b": np.float64("nan"), "a": np.float64(-0.0)}),
              _record(2, {"membership": 5e-324, "b": 1.7976931348623157e308,
                          "a": 1e-300}),
              _record(3, {"membership": 1, "b": True, "a": None})]
    report = VerificationReport.from_trials(
        "edge", trials, config={"tol": np.float64(1e-9), "nan": math.nan},
        details={"inf": -math.inf}, worst_residual=math.nan)
    text = report.to_json()
    assert text == json_oracle(report)
    assert '"membership": NaN' in text and '"b": Infinity' in text
    assert '"a": -Infinity' in text and "np.float64" not in text
    report.worst_residual = np.float64(math.inf)
    assert report.to_json() == json_oracle(report)


def test_to_json_escapes_strings_and_takes_seedless_trials():
    shared = {"point": ["1/3", "2/3"], "group": "U(2)"}
    trials = [_record(0, {"r": 0.5}, note="α → β, ü \"quoted\" \\ \t",
                      seed=None, inputs=shared),
              _record(1, {"r": 0.25}, note="α → β, ü \"quoted\" \\ \t",
                      seed=None, inputs=shared, status="rejected",
                      passed=False),
              _record(2, {}, inputs={}, note="ok"),
              _record(3, {"r": 1.0}, inputs={"é": "ñ"}, digest="ab ")]
    report = VerificationReport.from_trials("ñote", trials,
                                            config={"label": "SL(2,R) ∋ g"})
    text = report.to_json()
    assert text == json_oracle(report)
    assert '"seed": null' in text and '"residuals": {}' in text
    assert "\\u03b1" in text  # ensure_ascii, as json.dumps


def test_to_json_of_an_empty_report():
    report = VerificationReport.from_trials("empty", [])
    assert report.to_json() == json_oracle(report)
    assert '"trials": []' in report.to_json()
    assert VerificationReport("bare", True, 0.0).to_json() == json_oracle(
        VerificationReport("bare", True, 0.0))


@pytest.mark.parametrize("items", [[], [1.5], [[1, 2], -0.0, "a"]])
@pytest.mark.parametrize("depth", [0, 3])
def test_json_list_prints_what_json_dumps_prints(items, depth):
    # a list of printed items at its depth, the empty list as []
    pad = "  " * depth
    want = json.dumps(items, indent=2).replace("\n", "\n" + pad)
    texts = [json.dumps(item, indent=2).replace("\n", "\n" + pad + "  ")
             for item in items]
    assert reports._json_list(texts, pad) == want


def test_to_json_of_nested_inputs_and_residuals():
    trials = [_record(0, {"r": 0.5, "path": [0.1, [0.2, float("nan")]]},
                      inputs={"m": [[1, 2.5], [-0.0, {"deep": []}]],
                              "b": {"z": 1, "a": [True, None]},
                              "t": 0.30000000000000004}),
              _record(1, {2: 0.5, 10: 0.25}, inputs={"point": []}),
              _record(2, {"z": 0.0, "a": {"x": [1.5]}})]
    # one list object printed at two depths: as an input and as a note
    shared = [1.5, ["x"]]
    trials.append(_record(3, {"r": 0.0}, inputs={"shared": shared},
                          note=shared))
    report = VerificationReport.from_trials(
        "nested", trials, worst_residual=0.5,
        details={"classes": [[1.0, -1], [0.5, 0]], "empty": {}})
    assert report.to_json() == json_oracle(report)


@pytest.mark.parametrize("field,value", [("seed", np.int64(3)),
                                         ("residuals", {"r": np.float32(1)}),
                                         ("inputs", {"x": object()})])
def test_to_json_refuses_what_json_dumps_refuses(field, value):
    record = _record(0, {"r": 0.5})
    setattr(record, field, value)
    report = VerificationReport.from_trials("bad", [record],
                                            worst_residual=0.5)
    with pytest.raises(TypeError):
        json_oracle(report)
    with pytest.raises(TypeError):
        report.to_json()


# Hypothesis reports for the template writer: every value json.dumps
# takes, in residuals and inputs, under string keys (with quotes, "%" and
# non-ASCII) or int keys.
KEYS = st.text(st.sampled_from('ab%"\\é→ \t'), min_size=1, max_size=4)
FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf,
                                                 -math.inf, -0.0]),
                   st.floats().map(np.float64))
SCALARS = st.one_of(FLOATS, st.integers(-2**70, 2**70), st.booleans(),
                    st.none(), st.text(max_size=4))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(KEYS, inner, max_size=3)), max_leaves=6)
STR_FIELDS = st.dictionaries(KEYS, VALUES, max_size=4)
FIELDS = st.one_of(STR_FIELDS,
                   st.dictionaries(st.integers(-3, 3), VALUES, max_size=3))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: Residual dicts, mostly of finite floats under a few shared key orders,
#: so that templates are built once and reused.
RESIDUALS = st.one_of(
    st.sampled_from([("r",), ("membership", "invariant_mismatch"),
                     ("b", "a%", "c")]).flatmap(
        lambda keys: st.tuples(*[st.one_of(FINITE, FINITE, FLOATS)
                                 for _ in keys]).map(
            lambda values: dict(zip(keys, values)))),
    FIELDS)


@st.composite
def template_reports(draw):
    # inputs dicts and nested lists shared between trials, as the sweeps
    # share them, beside fresh ones
    point = draw(st.lists(st.text(max_size=3), max_size=3))
    shared = [draw(FIELDS), {"point": point, "n": 3}]
    trials = []
    for index in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            inputs = shared[draw(st.integers(0, 1))]
        else:
            inputs = ({**draw(STR_FIELDS), "point": point}
                      if draw(st.booleans()) else draw(FIELDS))
        trials.append(TrialRecord(
            index=index, seed=draw(st.one_of(st.none(),
                                             st.integers(0, 2**130))),
            inputs=inputs, residuals=draw(RESIDUALS),
            passed=draw(st.booleans()),
            status=draw(st.sampled_from(["ok", "rejected", "é%s"])),
            note=draw(st.sampled_from(["", "n%d \"q\"", "α → β"])),
            digest=draw(st.sampled_from(["", "abc%"]))))
    return VerificationReport("hyp", draw(st.booleans()), 0.5, trials,
                              config={"seed": 1}, details={"k": [1.5]})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(template_reports())
def test_to_json_prints_what_json_dumps_prints_on_any_report(report):
    assert report.to_json() == json_oracle(report)


def repr_csv(block):
    # the oracle of reports._float_csv: one float.__repr__ per value
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(block).tolist())


def _one_column(values):
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def _float_edge_cases():
    two = np.ldexp(1.0, np.arange(-1074, 1024))
    ints = np.concatenate([np.arange(0.0, 2.0 ** 16),
                           np.ldexp(1.0, np.arange(54)) - 1.0,
                           2.0 ** 53 - np.arange(1.0, 2.0 ** 12)])
    return {
        "signed zeros": [0.0, -0.0],
        "powers of two and their neighbours": np.concatenate(
            [two, np.nextafter(two, 0.0), np.nextafter(two, np.inf)]),
        "powers of ten": [float(f"1e{e}") for e in range(-323, 309)],
        "multiples of 5e-324": np.arange(1, 10 ** 5 + 1,
                                         dtype=np.uint64).view(np.float64),
        "positional and scientific edges": [
            1e-4, 9.999999999999999e-05, 9999999999999998.0, 1e16,
            1e-5, 0.0001234, 123456789012345.6, 1234567890123456.8],
        "integers up to 2^53": ints,
        "nan and infinities": [np.nan, -np.nan, np.inf, -np.inf],
    }


@pytest.mark.parametrize("case", list(_float_edge_cases()))
def test_float_csv_prints_what_repr_prints(case):
    values = np.asarray(_float_edge_cases()[case], dtype=np.float64)
    for block in (_one_column(values), _one_column(-values),
                  values[:len(values) // 3 * 3].reshape(-1, 3)):
        assert "".join(reports._float_csv(block)) == repr_csv(block)


def test_float_csv_prints_the_one_digit_subnormals():
    # Java's Schubfach keeps two digits for these eight; repr prints one
    tiny = np.array([1, 2, 10, 12, 14, 16, 18, 20], dtype=np.uint64)
    text = "".join(reports._float_csv(_one_column(tiny.view(np.float64))))
    assert text.split() == ["5e-324", "1e-323", "5e-323", "6e-323",
                            "7e-323", "8e-323", "9e-323", "1e-322"]


def test_float_csv_random_bit_patterns():
    # 10^6 finite values of every exponent and sign in one call, which
    # runs many passes of _CSV_VALUES
    bits = np.random.default_rng(27).integers(0, 2 ** 64, 10 ** 6 + 10 ** 4,
                                              dtype=np.uint64)
    values = bits.view(np.float64)
    block = values[np.isfinite(values)][:10 ** 6].reshape(-1, 4)
    assert len(block) == 250_000
    assert "".join(reports._float_csv(block)) == repr_csv(block)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=cols, max_size=cols), max_size=8).map(
    lambda rows: np.array(rows, dtype=np.float64).reshape(-1, cols))))
def test_float_csv_matches_repr_on_small_blocks(block):
    assert "".join(reports._float_csv(block)) == repr_csv(block)


@pytest.mark.parametrize("rows,cols", [(0, 3), (1, 1), (5120, 1), (5121, 1),
                                       (3000, 5), (7, 5121), (2049, 7)])
def test_float_csv_passes_hold_at_most_csv_values(rows, cols):
    # whole rows per pass, at most _CSV_VALUES values each unless one row
    # alone holds more; the passes joined are the repr oracle
    block = np.random.default_rng(rows).standard_normal((rows, cols))
    passes = list(reports._float_csv(block))
    counts = [text.count("\n") for text in passes]
    assert sum(counts) == rows
    per_pass = max(1, reports._CSV_VALUES // cols)
    assert all(0 < count <= per_pass for count in counts)
    assert len(passes) == -(-rows // per_pass)
    assert all(text.count(",") + text.count("\n")
               <= max(reports._CSV_VALUES, cols) for text in passes)
    assert "".join(passes) == repr_csv(block)


def test_float_csv_builds_its_tables_on_first_use():
    # importing the CLI builds none of them, so start-up does not pay
    code = ("import torsion_orbits.cli, torsion_orbits.reports as r; "
            "print(r._float_tables.cache_info().currsize)")
    src = Path(reports.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert out.stdout.strip() == "0"
