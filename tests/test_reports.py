"""Report plumbing: digests, round-trips, wall-time stripping, and the
template JSON writer, checked against ``json.dumps``."""

import json
import math
import re

import numpy as np
import pytest

from torsion_orbits import reports
from torsion_orbits.curves import (curve_kernel_check, product_identity_check,
                                   tangent_space_check)
from torsion_orbits.groups import (TOL_MEMBERSHIP, GroupSpec,
                                   membership_error, random_algebra,
                                   random_element, require_residual)
from torsion_orbits.reports import (TrialRecord, VerificationReport,
                                    inputs_digest, members_only,
                                    run_stacked_trials, single_trial_report,
                                    strip_wall_time)
from torsion_orbits.subspaces import (verify_kernel_image_identity,
                                      verify_zero_intersection)
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
    back = VerificationReport.from_json(rep.to_json())
    assert back.to_dict() == rep.to_dict()


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
    "kernel-image": lambda: verify_kernel_image_identity(
        GroupSpec("U", 3), _torsion_element(GroupSpec("U", 3), 4), 4),
    "kernel-image-rejected": lambda: verify_kernel_image_identity(
        GroupSpec("U", 3), random_element(GroupSpec("U", 3), 2), 4),
    "zero-intersection-one": lambda: verify_zero_intersection(
        GroupSpec("SO", 4), _torsion_element(GroupSpec("SO", 4), 6), 6),
    "tangent-space": lambda: tangent_space_check(
        GroupSpec("SU", 2), random_element(GroupSpec("SU", 2), 3),
        random_algebra(GroupSpec("SU", 2), 3)),
    "curve-kernel": lambda: curve_kernel_check(
        GroupSpec("SO", 3), _torsion_element(GroupSpec("SO", 3), 4), 4,
        random_algebra(GroupSpec("SO", 3), 5)),
    "product-identity": lambda: product_identity_check(
        GroupSpec("SO", 3), _torsion_element(GroupSpec("SO", 3), 4), 4,
        random_algebra(GroupSpec("SO", 3), 5), 0.3),
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
