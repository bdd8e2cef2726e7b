"""The package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line; all numeric gates are pinned
here, none deferred. The random-model populations are seeded and shared
across criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from lglab import (
    check_opnd,
    check_opnd_complete,
    classify,
    disturbance_report,
    lg_value_pairwise,
    post_select_noninvasive,
    run_protocol,
)
from lglab.classify import QuantityClass
from lglab.core import outcome_probabilities
from builders import sphere_probe
from random_models import random_arrangement
from lglab import cli, schema, twoslit, zoo

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
MASKS = (
    (True, True, True),
    (True, True, False),
    (True, False, True),
    (False, True, True),
)


def verdict(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def random_reports():
    rng = np.random.default_rng(20260810)
    return [disturbance_report(random_arrangement(rng)) for _ in range(1000)]


@pytest.fixture(scope="module")
def ks_build():
    return zoo.build("ks-sphere"), QuantityClass


def test_criterion_1_decomposition_identity(random_reports):
    worst = max(abs(r.decomposition_residual) for r in random_reports)
    verdict(1, worst <= 1e-12, f"worst |residual| = {worst:.3e} over 1000 random models")


def test_criterion_2_trivial_bound(random_reports):
    low = min(r.lg_all_three for r in random_reports)
    high = max(r.lg_all_three for r in random_reports)
    ok = low >= -1.0 - 1e-12 and high <= 3.0 + 1e-12
    verdict(2, ok, f"all-performed values in [{low:.6f}, {high:.6f}] over 1000 models")


def test_criterion_3_chain_for_identity_updates():
    rng = np.random.default_rng(1985)
    counterexamples = 0
    for _ in range(1000):
        arr = random_arrangement(rng, noninvasive_early=True)
        model = arr.model
        complete = (
            check_opnd_complete(model, "M1").non_disturbing
            and check_opnd_complete(model, "M2").non_disturbing
        )
        specific = (
            check_opnd(model, "E", "M1", suffix=[("T1", "M2"), ("T2", "M3")]).non_disturbing
            and check_opnd(
                model,
                "E",
                "M2",
                suffix=[("T2", "M3")],
                prefix=[(None, "M1")],
                pre_transformation="T1",
            ).non_disturbing
        )
        satisfied = lg_value_pairwise(arr) >= -1.0 - 1e-9
        if not (complete and specific and satisfied):
            counterexamples += 1
    verdict(3, counterexamples == 0, f"{counterexamples} counterexamples in 1000 models")


def test_criterion_4_violation_needs_disturbance(random_reports):
    # random tables rarely violate, so the tested population also includes
    # the violating families: rotated qubits, two-path models, screen bins
    reports = list(random_reports)
    rng = np.random.default_rng(404)
    for _ in range(40):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        reports.append(disturbance_report(zoo.build_qubit_arrangement(t1, t2)))
    reports.append(
        disturbance_report(zoo.build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI))
    )
    reports.append(
        disturbance_report(zoo.build_bohm_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI))
    )
    for m1, phi in ((0.2, math.pi), (0.3, 3.0), (0.45, math.pi)):
        s = twoslit.SlitAmplitudes.from_intensity_phase(m1, phi)
        reports.append(disturbance_report(twoslit.compile_to_arrangement(s)))
    violations = 0
    counterexamples = 0
    for report in reports:
        if report.lg_pairwise < -1.0 - 1e-9:
            violations += 1
            if report.max_disturbance() <= 0.0:
                counterexamples += 1
    ok = counterexamples == 0 and violations > 0
    verdict(4, ok, f"{violations} violations, {counterexamples} without disturbance")


def test_criterion_5_quantum_violation():
    arr = zoo.build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI)
    at_min = lg_value_pairwise(arr)
    ok_point = abs(at_min + 1.5) <= 1e-9

    # closed form from the sequential overlap factors, swept on a 0.01 grid;
    # validated against the engine on a random subgrid before being trusted
    grid = np.arange(0.0, 2.0 * math.pi, 0.01)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    closed = np.cos(t1) + np.cos(t1 + t2) + np.cos(t2)
    rng = np.random.default_rng(5)
    gap = 0.0
    for _ in range(60):
        i, j = rng.integers(0, grid.size, size=2)
        engine = lg_value_pairwise(zoo.build_qubit_arrangement(grid[i], grid[j]))
        gap = max(gap, abs(engine - closed[i, j]))
    i, j = np.unravel_index(np.argmin(closed), closed.shape)
    engine_min = lg_value_pairwise(zoo.build_qubit_arrangement(grid[i], grid[j]))
    ok_grid = (
        gap <= 1e-12
        and closed.min() >= -1.5 - 1e-6
        and abs(engine_min - closed.min()) <= 1e-12
    )
    verdict(
        5,
        ok_point and ok_grid,
        f"value {at_min:.12f} at 2*pi/3, grid min {closed.min():.9f}, "
        f"engine gap {gap:.2e}",
    )


def test_criterion_6_two_slit_closed_forms():
    worst = 0.0
    flag_mismatch = 0
    for i in range(1, 21):
        for j in range(36):
            m1 = i / 21.0
            phi = 2.0 * math.pi * j / 36.0
            s = twoslit.SlitAmplitudes.from_intensity_phase(m1, phi)
            report = disturbance_report(twoslit.compile_to_arrangement(s))
            worst = max(
                worst,
                abs(report.lg_pairwise - twoslit.lg_plus_value(s)),
                abs(report.d2[(1, 1)] - twoslit.disturbance_d2(s)),
            )
            on_boundary = abs(math.cos(s.phase_difference) + s.mod1 / s.mod2) <= 1e-9
            violates = twoslit.lg_plus_value(s) < -1.0
            if not on_boundary and violates != twoslit.violation_condition(s):
                flag_mismatch += 1
    point = twoslit.lg_plus_value(twoslit.SlitAmplitudes.from_intensity_phase(0.2, math.pi))
    ok = worst <= 1e-12 and flag_mismatch == 0 and abs(point + 1.4) <= 1e-12
    verdict(
        6,
        ok,
        f"20x36 grid: engine gap {worst:.2e}, {flag_mismatch} flag mismatches, "
        f"point (0.2, pi) = {point}",
    )


def test_criterion_7_taxonomy():
    # mixture macrorealism: never below the bound across the flip sweep
    sweep_min = math.inf
    for p1 in np.linspace(0.0, 1.0, 100):
        for p2 in np.linspace(0.0, 1.0, 100):
            sweep_min = min(
                sweep_min, lg_value_pairwise(zoo.build_superselected_arrangement(p1, p2))
            )
    chain = zoo.build("superselected")
    chain_cls = QuantityClass.verified(chain.model, "Q", ["read"])
    chain_verdict = classify(chain.model, chain_cls).verdict
    ok_chain = chain_verdict == "MR1" and sweep_min >= -1.0

    sphere = zoo.build_ks_arrangement(10_000, TWO_THIRDS_PI, TWO_THIRDS_PI)
    rng = np.random.default_rng(77)
    born_error = 0.0
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        probe = sphere_probe(sphere.model, direction)
        p = outcome_probabilities(sphere.model.preparations["up"], probe)["+1"]
        beta = math.acos(max(-1.0, min(1.0, float(direction[2]))))
        born_error = max(born_error, abs(p - math.cos(beta / 2.0) ** 2))
    sphere_cls = QuantityClass.verified(sphere.model, "Q", ["Mz"])
    sphere_verdict = classify(sphere.model, sphere_cls).verdict
    sphere_lg = lg_value_pairwise(sphere)
    ok_sphere = (
        sphere_verdict == "MR2" and born_error <= 2e-2 and abs(sphere_lg + 1.5) <= 5e-2
    )

    paths = zoo.build_bohm_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI)
    qubit = zoo.build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI)
    table_gap = 0.0
    for mask in MASKS:
        jq = run_protocol(qubit.model, qubit.protocol(mask)).table
        jb = run_protocol(paths.model, paths.protocol(mask)).table
        table_gap = max(table_gap, max(abs(jq[k] - jb[k]) for k in jq))
    paths_cls = QuantityClass.verified(paths.model, "Q", ["path"])
    paths_verdict = classify(paths.model, paths_cls).verdict
    ok_paths = paths_verdict == "MR3" and table_gap <= 1e-12

    verdict(
        7,
        ok_chain and ok_sphere and ok_paths,
        f"superselected {chain_verdict} (sweep min {sweep_min:.3f}); "
        f"sphere {sphere_verdict} (born {born_error:.2e}, lg {sphere_lg:.4f}); "
        f"two-path {paths_verdict} (gap {table_gap:.2e})",
    )


def test_criterion_8_counterexample_fixture():
    fixture = zoo.build("lgi-holds-d-nonzero")
    report = disturbance_report(fixture.arrangement)
    ok = report.max_disturbance() > 0.1 and report.lg_pairwise >= -1.0
    verdict(
        8,
        ok,
        f"max |D| = {report.max_disturbance():.4f}, value = {report.lg_pairwise:.4f}",
    )


def test_criterion_9_post_selection_composite():
    model = zoo.build("null-result-pair").model
    result = post_select_noninvasive(model, ("null-plus", "+1"), ("null-minus", "-1"))
    worst = max(r.deviation_from_input for r in result.records)
    ok = worst <= 1e-12 and len(result.records) == len(model.preparations)
    verdict(9, ok, f"worst kept-branch deviation {worst:.2e} over all preparations")


def test_criterion_10_round_trip_and_determinism(tmp_path, capsys):
    problems = []

    def round_trip(name, **params):
        build = zoo.build(name, **params)
        arrangements = {"lg": build.arrangement} if build.arrangement else {}
        doc = schema.model_to_doc(build.model, name=name, arrangements=arrangements)
        path = tmp_path / f"{name}.json"
        schema.dump_document(doc, path)
        model, _, arrs = schema.doc_to_model(schema.load_document(path))
        return build, model, arrs.get("lg")

    # criterion 5 number: qubit pairwise value, bit identical after reimport
    build, _, arr = round_trip("qubit")
    if lg_value_pairwise(arr) != lg_value_pairwise(build.arrangement):
        problems.append("qubit value drifted")

    # criterion 7 numbers
    build, model, arr = round_trip("superselected")
    if lg_value_pairwise(arr) != lg_value_pairwise(build.arrangement):
        problems.append("superselected value drifted")
    if classify(model, QuantityClass.verified(model, "Q", ["read"])).verdict != "MR1":
        problems.append("superselected verdict drifted")

    build, model, arr = round_trip("ks-sphere")
    if lg_value_pairwise(arr) != lg_value_pairwise(build.arrangement):
        problems.append("sphere value drifted")
    if classify(model, QuantityClass.verified(model, "Q", ["Mz"])).verdict != "MR2":
        problems.append("sphere verdict drifted")

    build, model, arr = round_trip("bohm-two-path")
    for mask in MASKS:
        before = run_protocol(build.model, build.arrangement.protocol(mask)).table
        after = run_protocol(model, arr.protocol(mask)).table
        if any(before[k] != after[k] for k in before):
            problems.append("two-path tables drifted")
            break
    if classify(model, QuantityClass.verified(model, "Q", ["path"])).verdict != "MR3":
        problems.append("two-path verdict drifted")

    # criterion 8 numbers
    fixture = zoo.build("lgi-holds-d-nonzero")
    before = disturbance_report(fixture.arrangement)
    _, model, arr = round_trip("lgi-holds-d-nonzero")
    after = disturbance_report(arr)
    if (after.max_disturbance(), after.lg_pairwise) != (
        before.max_disturbance(),
        before.lg_pairwise,
    ):
        problems.append("fixture numbers drifted")

    _, model, _ = round_trip("null-result-pair")
    reimported = post_select_noninvasive(model, ("null-plus", "+1"), ("null-minus", "-1"))
    if not reimported.matches_input:
        problems.append("post-selection drifted")

    # CLI determinism, byte for byte
    for args in (
        ["lg", "--zoo", "qubit", "--no-timestamp"],
        ["classify", "--zoo", "superselected", "--no-timestamp"],
        ["zoo", "export", "superselected"],
    ):
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        if capsys.readouterr().out != first:
            problems.append(f"non-deterministic output for {args}")

    verdict(10, not problems, "; ".join(problems) or "round trips exact, reports byte-identical")
