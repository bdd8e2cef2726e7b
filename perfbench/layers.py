"""The layers a traced run wraps, and the per-layer metrics made from their spans.

Each target is a public function of one lglab module. A per-layer time
``<span>_s`` is the median duration of one call, set-up calls included;
``<span>_calls`` is the number of calls in one batch of ops. Both count
``lg.check_opnd`` only where ``check_implication_chain`` calls it.
``<layer>.self_s`` is the layer's busy time per batch: the summed self
time of its spans, which is a span's duration minus the part its child
spans cover. A layer a workload never calls reports 0 calls and 0.0 s.
"""

from __future__ import annotations

import os
from collections import defaultdict

from perfbench.spans import covered_length, self_times
from perfbench.stats import median

LAYERS = ("core", "operational", "lg", "classify", "schema", "twoslit", "zoo", "cli")
CLI_KINDS = ("lg", "classify", "export", "load", "twoslit", "sweep")
#: Batch index of spans recorded while the workload sets up.
SETUP_BATCH = -1
#: Span name -> the only parent span name whose calls its ``_s`` and ``_calls``
#: count. ``lg.check_opnd`` reads the two specific contexts the chain checks,
#: not the calls ``check_opnd_complete`` makes while it enumerates.
COUNTED_UNDER = {"lg.check_opnd": "lg.check_implication_chain"}


def _contexts(args, kwargs, result):
    """Contexts check_opnd_complete enumerates, from the model's shape, and those skipped."""
    model = args[0] if args else kwargs["model"]
    n_t = len(model.transformations)
    n_m = len(model.measurements)
    suffixes = sum((n_t * n_m) ** length for length in range(1, result.depth + 1))
    contexts = len(result.preparations) * (1 + n_m) * (1 + n_t) * suffixes
    return {"contexts": contexts, "undefined": result.undefined_contexts}


def _file_bytes(position, keyword):
    def hook(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs[keyword]
        return {"bytes": os.path.getsize(path)}

    return hook


def _cli_output(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"bytes": os.path.getsize(path)}
    return {"bytes": 0}


#: (module, attribute, span name, hook adding span attributes)
TARGETS = (
    ("lglab.core", "is_ontically_noninvasive", "core.is_ontically_noninvasive", None),
    ("lglab.core", "post_measurement_distribution", "core.post_measurement_distribution", None),
    ("lglab.operational", "run_protocol", "operational.run_protocol", None),
    ("lglab.lg", "disturbance_report", "lg.disturbance_report", None),
    ("lglab.lg", "check_opnd", "lg.check_opnd", None),
    ("lglab.lg", "check_opnd_complete", "lg.check_opnd_complete", _contexts),
    ("lglab.lg", "lg_value_pairwise", "lg.lg_value_pairwise", None),
    ("lglab.lg", "check_implication_chain", "lg.check_implication_chain", None),
    ("lglab.classify", "QuantityClass.verified", "classify.verified", None),
    ("lglab.classify", "classify", "classify.classify", None),
    ("lglab.classify", "check_equilibrium_property", "classify.equilibrium", None),
    ("lglab.schema", "model_to_doc", "schema.model_to_doc", None),
    ("lglab.schema", "dump_document", "schema.dump", _file_bytes(1, "path")),
    ("lglab.schema", "load_model_file", "schema.load", _file_bytes(0, "path")),
    ("lglab.twoslit", "violation_map", "twoslit.violation_map",
     lambda args, kwargs, result: {"points": len(result)}),
    ("lglab.zoo", "build", "zoo.build",
     lambda args, kwargs, result: {"states": len(result.model.space.states)}),
    ("lglab.cli", "main", "cli.main", _cli_output),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    [("lglab.import_s", "s"), ("lglab.scipy_optimize_imported", "count")]
    + [(f"{name}_s", "s") for name in SPAN_NAMES]
    + [(f"{name}_calls", "count") for name in SPAN_NAMES]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [(f"cli.main.{kind}_s", "s") for kind in CLI_KINDS]
    + [
        ("zoo.states", "count"),  # median states of one built model
        ("lg.contexts", "count"),
        ("lg.contexts_undefined", "count"),
        ("lg.contexts_defined_ratio", "1"),
        ("schema.doc_bytes", "B"),
        ("twoslit.points", "count"),
        ("cli.output_bytes", "B"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
        ("host.kernel_s", "s"),
    ]
)


def _per_batch(total, batches):
    value = total / batches
    return int(value) if float(value).is_integer() else value


def per_layer_metrics(spans, batches: int) -> dict:
    """Per-layer metrics from a traced run with ``batches`` spanned batches.

    ``lglab.import_s``, ``lglab.scipy_optimize_imported`` and
    ``trace.overhead_s`` come from elsewhere and are not set here.
    """
    selfs = self_times(spans)
    all_by_name = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        all_by_name[s.name].append(s)
        if s.batch != SETUP_BATCH:
            by_name[s.name].append(s)
    op_kind = {s.span_id: s.attrs.get("kind") for s in spans if s.parent is None}
    name_of = {s.span_id: s.name for s in spans}

    def counted(name, group):
        parent = COUNTED_UNDER.get(name)
        return group if parent is None else [s for s in group if name_of.get(s.parent) == parent]

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = median(s.duration for s in counted(name, all_by_name[name])) or 0.0
        out[f"{name}_calls"] = _per_batch(len(counted(name, by_name[name])), batches)
    for layer in LAYERS:
        mine = [s for name, group in by_name.items() if name.split(".", 1)[0] == layer
                for s in group]
        out[f"{layer}.self_s"] = sum(selfs[s.span_id] for s in mine) / batches
        out[f"{layer}.errors"] = _per_batch(sum(s.error for s in mine), batches)
    for kind in CLI_KINDS:
        durations = [s.duration for s in by_name["cli.main"] if op_kind.get(s.op) == kind]
        out[f"cli.main.{kind}_s"] = median(durations) or 0.0

    def per_batch(names, key):
        return _per_batch(sum(s.attrs.get(key, 0) for n in names for s in by_name[n]), batches)

    contexts = per_batch(["lg.check_opnd_complete"], "contexts")
    undefined = per_batch(["lg.check_opnd_complete"], "undefined")
    out["zoo.states"] = median(s.attrs.get("states", 0) for s in all_by_name["zoo.build"]) or 0
    out["lg.contexts"] = contexts
    out["lg.contexts_undefined"] = undefined
    out["lg.contexts_defined_ratio"] = 1.0 - undefined / contexts if contexts else 0.0
    out["schema.doc_bytes"] = per_batch(["schema.dump", "schema.load"], "bytes")
    out["twoslit.points"] = per_batch(["twoslit.violation_map"], "points")
    out["cli.output_bytes"] = per_batch(["cli.main"], "bytes")
    out["trace.spans"] = _per_batch(sum(len(group) for group in by_name.values()), batches)
    return out


def op_breakdown(spans) -> list:
    """Per op kind: op count, mean op time, the share covered by child spans,
    and each span name's inclusive share of the op time (no target calls itself)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.op].append(s)
    kinds = defaultdict(list)
    for s in spans:
        if s.parent is None:
            kinds[s.attrs.get("kind")].append(s)
    rows = []
    for kind, ops in kinds.items():
        total = sum(op.duration for op in ops) or 1e-300
        covered = 0.0
        inclusive = defaultdict(float)
        for op in ops:
            direct = [(c.start, c.end) for c in children[op.span_id] if c.parent == op.span_id]
            covered += covered_length(op.start, op.end, direct)
            for c in children[op.span_id]:
                inclusive[c.name] += c.duration
        rows.append({
            "kind": kind,
            "ops": len(ops),
            "mean_s": total / len(ops),
            "covered": covered / total,
            "shares": sorted(((v / total, k) for k, v in inclusive.items()), reverse=True),
        })
    return rows
