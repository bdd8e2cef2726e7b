"""Batch front door: load models, run analyses, emit reports and sweeps.

``_report`` is the one writer of reports: every command's report gets the
same header (tool, version, command, timestamp, tolerances, inputs) before
its results. ``zoo export`` writes a model file, and a CSV sweep its rows.

Exit codes: 0 on success, 2 on input or validation errors, 3 when an
exact internal identity is violated (an engine-defect signal, never a
property of a valid input).
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from . import __version__
from .classify import HULL_TOL, QuantityClass, check_equilibrium_property, classify
from .core import NORMALIZATION_TOL, SUPPORT_TOL, check_size
from .errors import EngineDefectError, LglabError, ModelError, SchemaError
from .lg import MASKS, RESIDUAL_TOL, check_implication_chain, disturbance_report
from .operational import EQUIVALENCE_TOL, marginalize, run_protocol
from . import schema, twoslit, zoo

#: The run-time gate on the decomposition residual: above it the lg command
#: writes its report and exits 3. ``RESIDUAL_TOL`` is the floor of d3 and --tol.
RESIDUAL_GATE = 1e-10


def _report(args, command, inputs, results, **tolerances):
    """Write the header, then ``results``; ``tolerances`` override or add to the defaults.

    The timestamp is left out under --no-timestamp, so that reruns are byte-identical,
    and ``datetime`` is imported only to make one.
    """
    timestamp = {}
    if not args.no_timestamp:
        from datetime import datetime, timezone

        timestamp["timestamp"] = datetime.now(timezone.utc).isoformat()
    report = {
        "tool": "lglab",
        "version": __version__,
        "command": command,
        **timestamp,
        "tolerances": {
            "normalization": NORMALIZATION_TOL,
            "support": SUPPORT_TOL,
            "equivalence": EQUIVALENCE_TOL,
            "hull": HULL_TOL,
            "decomposition_residual": RESIDUAL_TOL,
            "residual_gate": RESIDUAL_GATE,
            **tolerances,
        },
        "inputs": inputs,
        "results": results,
    }
    _emit(args, partial(schema.write_document, report))


def _emit(args, write):
    """Call ``write`` on the --out file, or on stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            write(handle)
    else:
        write(sys.stdout)


def _zoo_params(args, name):
    """The zoo parameter options given, by builder keyword; exit 2 on one ``name`` does not take."""
    accepted = () if name is None else zoo.parameters(name)  # None: a --model file takes none
    params = {}
    for key in _ZOO_PARAMS:
        if getattr(args, key) is not None:
            keyword = "n_points" if key == "grid" else key
            if keyword not in accepted:
                source = "--model" if name is None else f"zoo model {name!r}"
                raise SchemaError(f"--{key} does not apply to {source}")
            params[keyword] = getattr(args, key)
    return params


def _resolve(args, with_arrangement=False):
    """(model, arrangement or None, inputs echo) for --zoo or --model.

    With ``with_arrangement`` (lg), the arrangement is the zoo entry's own or
    the model file's, picked by --arrangement when the file declares several.
    """
    if with_arrangement and args.zoo is not None and args.arrangement is not None:
        raise SchemaError("--arrangement picks an arrangement of a --model file, not of --zoo")
    params = _zoo_params(args, args.zoo)
    if args.zoo is not None:
        built = zoo.build(args.zoo, **params)
        if with_arrangement and built.arrangement is None:
            raise SchemaError(f"zoo model {args.zoo!r} ships no arrangement")
        return built.model, built.arrangement, {"zoo": args.zoo, "parameters": params or "defaults"}
    model, _, arrangements = schema.load_model_file(args.model)
    if not with_arrangement:
        return model, None, {"model": args.model}
    name = _pick(arrangements, args.arrangement, "arrangement", "--arrangement", "model file")
    return model, arrangements[name], {"model": args.model, "arrangement": name}


def _pick(declared, name, kind, option, owner):
    """``name``, or the one name in ``declared`` when ``option`` was not given (``name`` None).

    A SchemaError, so exit 2, when no option was given and ``declared`` is
    empty or holds several names, or when ``declared`` lacks ``name``.
    ``owner`` names what declares them in the messages.
    """
    if name is None:
        if not declared:
            raise SchemaError(f"{owner} declares no {kind}")
        if len(declared) != 1:
            raise SchemaError(f"{owner} declares {sorted(declared)}; pick one with {option}")
        name = next(iter(declared))
    if name not in declared:
        raise SchemaError(f"unknown {kind} {name!r}; {owner} has {sorted(declared)}")
    return name


def _table_doc(joint):
    return [{"outcomes": list(combo), "p": p} for combo, p in joint.table.items()]


def cmd_run(args) -> int:
    model, protocols, _ = schema.load_model_file(args.model)
    name = _pick(protocols, args.protocol, "protocol", "--protocol", "model file")
    joint = run_protocol(model, protocols[name])
    results = {
        "axes": [{"measurement": m, "outcomes": list(o)} for m, o in joint.axes],
        "joint": _table_doc(joint),
    }
    for keep in args.marginal or []:
        axes = [a.strip() for a in keep.split(",") if a.strip()]
        marg = marginalize(joint, [int(a) if a.isdecimal() else a for a in axes])
        results.setdefault("marginals", {})[keep] = _table_doc(marg)
    _report(args, "run", {"model": args.model, "protocol": args.protocol}, results)
    return 0


def _steps_doc(steps):
    return [{"transformation": t, "measurement": m} for t, m in steps]


def _complete_doc(result):
    """A complete non-disturbance check: its worst deviation, the context behind it, the skips,
    whether it was settled without a walk, and the preparations it quantified over."""
    witness = None
    if result.witness is not None:
        preparation, prefix, pre_transformation, suffix = result.witness
        witness = {
            "preparation": preparation,
            "prefix": _steps_doc(prefix),
            "pre_transformation": pre_transformation,
            "suffix": _steps_doc(suffix),
        }
    return {
        "max_deviation": result.max_deviation,
        "witness": witness,
        "undefined_contexts": result.undefined_contexts,
        "settled": result.settled,
        "preparations": list(result.preparations),
    }


def cmd_lg(args) -> int:
    _, arrangement, inputs = _resolve(args, with_arrangement=True)
    chain = check_implication_chain(arrangement, depth=args.depth, tol=args.tol)
    report_obj = chain.report
    early = zip(arrangement.measurements[:2], chain.details["oni_deviations"],
                chain.details["complete"])
    d1, d2 = chain.details["specific"]
    disturbance = {
        table: {f"{a},{b}": v for (a, b), v in getattr(report_obj, table).items()}
        for table in ("d1", "d2", "d3")
    }
    disturbance["max_abs_d1_d2"] = report_obj.max_disturbance()
    results = {
        "lg_all_three": report_obj.lg_all_three,
        "lg_pairwise": report_obj.lg_pairwise,
        "disturbance": disturbance,
        "decomposition_residual": report_obj.decomposition_residual,
        "chain": {
            "ontically_noninvasive": chain.ontically_noninvasive,
            "opnd_complete": chain.opnd_complete,
            "opnd_specific": chain.opnd_specific,
            "lgi_satisfied": chain.lgi_satisfied,
            "suffix_depth": args.depth,
            "measurements": {
                m: {"ontic_deviation": ontic, "complete": _complete_doc(complete)}
                for m, ontic, complete in early
            },
            "specific_deviations": {"d1": d1, "d2": d2},
        },
    }
    _report(args, "lg", inputs, results, equivalence=args.tol)
    if not (abs(report_obj.decomposition_residual) <= RESIDUAL_GATE):
        print(
            f"error: decomposition residual {report_obj.decomposition_residual!r} "
            f"exceeds gate {RESIDUAL_GATE}",
            file=sys.stderr,
        )
        return 3
    return 0


def _classification_doc(result):
    doc = {
        "quantity_class": result.quantity_class,
        "verdict": result.verdict,
        "macrodefinite": result.macrodefinite,
        "hull_tol": HULL_TOL,
    }
    if not result.macrodefinite:
        witnesses = list(result.macrodefinite_witnesses)
        doc["macrodefinite_witnesses"] = [
            {"state": str(s), "measurement": m, "detail": d} for s, m, d in witnesses[:20]
        ]
        doc["macrodefinite_witness_count"] = len(witnesses)
        return doc
    doc["eigenstate_preparations"] = {
        str(q): list(names) for q, names in result.eigenstate_preparations.items()
    }
    if result.values_without_eigenstate:
        doc["values_without_eigenstate"] = [str(q) for q in result.values_without_eigenstate]
    evidence = []
    for ev in result.evidence:
        entry = {
            "preparation": ev.name,
            "hull_residual": ev.hull_residual,
            "hull_weights": ev.hull_weights,
            "mixture_member": ev.mixture_member,
            "support_contained": ev.support_contained,
            "value_weights": {str(q): w for q, w in ev.value_weights.items()},
        }
        novel = [str(s) for s in ev.novel_states]
        if novel:
            entry["novel_states"] = novel[:50]
            entry["novel_state_count"] = len(novel)
        entry["value_components"] = {
            str(q): (
                {str(k): v for k, v in comp.weights.items()}
                if len(comp.weights) <= 64
                else {"support_size": len(comp.weights)}
            )
            for q, comp in ev.value_components.items()
        }
        evidence.append(entry)
    doc["evidence"] = evidence
    if result.skipped_images:
        doc["skipped_images"] = list(result.skipped_images)
    return doc


def cmd_classify(args) -> int:
    model, _, inputs = _resolve(args)
    declared = model.metadata.get("quantity_classes", {})
    label = _pick(declared, args.quantity_class, "quantity class", "--class", "model")
    try:
        cls = QuantityClass.verified(model, label, declared[label], tol=args.tol)
    except ModelError as exc:
        raise SchemaError(str(exc), path=f"quantity_classes.{label}") from None
    result = classify(model, cls, image_depth=args.image_depth)
    doc = _classification_doc(result)
    if result.macrodefinite:
        equilibrium = {
            m: check_equilibrium_property(model, cls, m).holds for m in cls.measurements
        }
        doc["eigenstate_fixed_point"] = equilibrium
    inputs["class"] = label
    _report(args, "classify", inputs, doc, class_equivalence=args.tol)
    return 0


def _fmt(value) -> str:
    return f"{value:.12g}"


def cmd_twoslit(args) -> int:
    for key in ("mod1_sq", "phi") if args.sweep else ("mod_steps", "phi_steps"):
        if getattr(args, key) is not None:
            option = "--" + key.replace("_", "-")
            raise SchemaError(
                f"{option} does not apply to --sweep" if args.sweep else f"{option} needs --sweep"
            )
    if args.sweep:
        mod_steps = 20 if args.mod_steps is None else args.mod_steps
        phi_steps = 36 if args.phi_steps is None else args.phi_steps
        check_size(f"--mod-steps {mod_steps} by --phi-steps {phi_steps}", "sweep rows",
                   max(mod_steps, 0) * max(phi_steps, 0))
        mods = [(i + 1) / (mod_steps + 1) for i in range(mod_steps)]
        phis = [2.0 * math.pi * i / phi_steps for i in range(phi_steps)]
        rows = twoslit.violation_map(mods, phis)
        if args.format == "csv":
            lines = [",".join(twoslit.CSV_COLUMNS), *(",".join(map(_fmt, r)) for r in rows)]
            _emit(args, lambda handle: handle.write("\n".join(lines) + "\n"))
            return 0
        _report(args, "twoslit", {"sweep": {"mod_steps": mod_steps, "phi_steps": phi_steps}},
                {"columns": list(twoslit.CSV_COLUMNS), "rows": list(map(list, rows))})
        return 0

    if args.mod1_sq is None or args.phi is None:
        raise SchemaError("point mode needs --mod1-sq and --phi (or use --sweep)")
    if args.format != "json":
        raise SchemaError(f"--format {args.format} needs --sweep; a point report is JSON")
    phi = args.phi
    if not 0.0 <= phi < 2.0 * math.pi:
        phi = phi % (2.0 * math.pi)
        print(f"warning: phase folded into [0, 2*pi) as {phi!r}", file=sys.stderr)
    amplitudes = twoslit.SlitAmplitudes.from_intensity_phase(args.mod1_sq, phi)
    both, blocked1, blocked2 = twoslit.detection_probabilities(amplitudes)
    engine = disturbance_report(twoslit.compile_to_arrangement(amplitudes))
    closed_lg = twoslit.lg_plus_value(amplitudes)
    closed_d2 = twoslit.disturbance_d2(amplitudes)
    _report(args, "twoslit", {"mod1_sq": args.mod1_sq, "phi": phi}, {
        "detection": {"both_open": both, "slit1_blocked": blocked1, "slit2_blocked": blocked2},
        "interference_term": twoslit.interference_term(amplitudes),
        "lg_plus": closed_lg,
        "lg_plus_mirrored": twoslit.lg_plus_mirrored(amplitudes),
        "d2_plus_plus": closed_d2,
        "violated": closed_lg < -1.0,
        "violation_condition_cos_phi": twoslit.violation_condition(amplitudes),
        "engine_cross_check": {
            "lg_pairwise": engine.lg_pairwise,
            "d2_plus_plus": engine.d2[(1, 1)],
            "max_gap": max(
                abs(engine.lg_pairwise - closed_lg), abs(engine.d2[(1, 1)] - closed_d2)
            ),
        },
    })
    return 0


def cmd_zoo_list(args) -> int:
    _report(args, "zoo", {"action": "list"},
            {"models": [{"name": n, "description": d} for n, d in zoo.list_models()]})
    return 0


def cmd_zoo_export(args) -> int:
    built = zoo.build(args.name, **_zoo_params(args, args.name))
    arrangements = {}
    protocols = {}
    if built.arrangement is not None:
        arrangements["lg"] = built.arrangement
        protocols = {f"lg-{run}": built.arrangement.protocol(mask) for run, mask in MASKS.items()}
    doc = schema.model_to_doc(
        built.model, name=built.name, arrangements=arrangements, protocols=protocols
    )
    _emit(args, partial(schema.write_document, doc))
    return 0


def _checked(parse, ok, requirement):
    """An argparse type: ``parse`` the text, then refuse values failing ``ok``."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value
    return convert


_FINITE = _checked(float, math.isfinite, "a finite number")

#: The zoo parameter options: name -> (type, help). --grid sets n_points.
_ZOO_PARAMS = {
    "theta1": (_FINITE, "first rotation angle (radians)"),
    "theta2": (_FINITE, "second rotation angle (radians)"),
    "p1": (float, "first flip probability"),
    "p2": (float, "second flip probability"),
    "grid": (int, "sphere grid size"),
}


def _add_common(parser):
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-identical reruns")


def _add_zoo_params(parser):
    for key, (kind, text) in _ZOO_PARAMS.items():
        parser.add_argument(f"--{key}", type=kind, help=text)


def _add_source(parser, least_tol=0.0):
    """Exactly one of --zoo and --model, the zoo parameters, --tol and the common options."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--zoo", help="zoo model name")
    source.add_argument("--model", help="model file")
    _add_zoo_params(parser)
    parser.add_argument("--tol", default=EQUIVALENCE_TOL,
                        type=_checked(float, lambda v: least_tol <= v < math.inf,
                                      f"a finite number >= {least_tol:g}"),
                        help="statistical-agreement tolerance")
    _add_common(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lglab",
        description="Exact sequential-measurement statistics on finite ontic models",
    )
    parser.add_argument("--version", action="version", version=f"lglab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a protocol from a model file")
    p_run.add_argument("--model", required=True)
    p_run.add_argument("--protocol", required=True)
    p_run.add_argument("--marginal", action="append",
                       help="comma-separated axes to marginalize onto (repeatable)")
    _add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_lg = sub.add_parser("lg", help="three-time values, disturbance tables, chain record")
    _add_source(p_lg, least_tol=RESIDUAL_TOL)
    p_lg.add_argument("--arrangement", help="arrangement name within the --model file")
    p_lg.add_argument("--depth", default=2,
                      type=_checked(int, lambda v: v >= 2, "at least 2"),
                      help="suffix depth bound for complete non-disturbance (at least 2, "
                           "so that it covers the arrangement's own suffixes)")
    p_lg.set_defaults(fn=cmd_lg)

    p_cls = sub.add_parser("classify", help="macrorealism taxonomy verdict")
    _add_source(p_cls)
    p_cls.add_argument("--class", dest="quantity_class", help="declared quantity class")
    p_cls.add_argument("--image-depth", default=0,
                       type=_checked(int, lambda v: v >= 0, "at least 0"),
                       help="also classify transformation images up to this depth")
    p_cls.set_defaults(fn=cmd_classify)

    p_ts = sub.add_parser("twoslit", help="interference closed forms and violation sweep")
    p_ts.add_argument("--mod1-sq", type=float, help="first-slit intensity |a1|^2")
    p_ts.add_argument("--phi", type=_FINITE, help="phase difference (radians)")
    p_ts.add_argument("--sweep", action="store_true")
    p_ts.add_argument("--mod-steps", type=int, help="sweep intensity steps (default 20)")
    p_ts.add_argument("--phi-steps", type=int, help="sweep phase steps (default 36)")
    p_ts.add_argument("--format", choices=("json", "csv"), default="json",
                      help="sweep output format")
    _add_common(p_ts)
    p_ts.set_defaults(fn=cmd_twoslit)

    p_zoo = sub.add_parser("zoo", help="list built-in models or export one")
    actions = p_zoo.add_subparsers(dest="action", required=True)
    p_list = actions.add_parser("list", help="list the built-in models")
    _add_common(p_list)
    p_list.set_defaults(fn=cmd_zoo_list)
    p_export = actions.add_parser("export", help="write one built-in model as a model file")
    p_export.add_argument("name", help="model to export")
    _add_zoo_params(p_export)
    _add_common(p_export)
    p_export.set_defaults(fn=cmd_zoo_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EngineDefectError as exc:
        print(f"internal identity violated: {exc}", file=sys.stderr)
        return 3
    except (LglabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
