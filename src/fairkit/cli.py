"""Command-line entry point.

Subcommands: metrics, repair, ferm-train, ferm-predict, sem, mtl, datasets.
All randomness flows from --seed (default 0) and reports are emitted as
JSON with sorted keys, so identical invocations produce byte-identical
outputs.  Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import causal, dataset as ds, ferm, metrics, multitask, transport

SCHEMA_VERSION = "1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # each subcommand has its own options, so a prefix could silently mean another flag
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _write_text(path, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_sweep(path, rows) -> None:
    x, series, value = zip(*rows) if rows else ((), (), ())  # one group has no pairs
    ds.write_table(path, ["x", "series", "value"],
                   [np.array(x, dtype=float), np.array(series, dtype=object), np.array(value, dtype=float)])


def _plain(value):
    """The JSON form of a value `json` cannot write itself (its ``default``):
    a dataclass is the object of its fields, an array a list and a frozenset a
    sorted list.  json then writes what these hold.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, frozenset):
        return sorted(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """``doc`` as indented JSON with sorted keys, its dataclasses, arrays and
    frozensets written by `_plain`.  JSON has no NaN or infinity, so a result
    holding one is a solver failure rather than invalid output.
    """
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"
    except ValueError:
        raise ferm.SolverError("the result holds NaN or infinity, which JSON cannot represent") from None


def _report_doc(command: str, seed: int, results: dict) -> str:
    return _json_text({"schema_version": SCHEMA_VERSION, "command": command, "seed": seed, "results": results})


def _parse_schema(text: str) -> dict:
    if text.startswith("@"):
        schema = _read_json(text[1:], "schema")
    else:
        schema = json.loads(text)
    if not isinstance(schema, dict):
        raise ds.DatasetError("schema must be a JSON object mapping column -> role")
    return schema


def _finite(text: str) -> float:
    """argparse type of every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: a non-negative integer, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _float_list(text: str) -> list[float]:
    """argparse type of --sweep and --epsilon-sweep: comma-separated finite numbers."""
    try:
        return [_finite(v) for v in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _read_json(path, kind: str):
    """The JSON value at ``path``; text that is not JSON and a non-finite
    number (``NaN``, ``Infinity``, or a literal such as 1e999 that
    overflows) are data errors.
    """
    def finite(text):
        if not math.isfinite(value := float(text)):
            raise ds.DatasetError(f"{kind} document {path} holds the non-finite number {text}")
        return value

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=finite, parse_constant=finite)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ds.DatasetError(f"{kind} document {path} is not JSON: {exc}") from None


def _read_document(path, kind: str, convert):
    """``convert`` of the document at ``path`` (`_read_json`); a ``schema_version``
    other than `SCHEMA_VERSION`, or none, a missing field, and a field that
    ``convert`` rejects, for its type or for the model it would make, are data
    errors.
    """
    doc = _read_json(path, kind)
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        found = "no schema_version" if version is None else f"schema_version {json.dumps(version)}"
        raise ds.DatasetError(f"{kind} document {path} has {found}; this fairkit reads version"
                              f" {json.dumps(SCHEMA_VERSION)}")
    try:
        return convert(doc)
    except KeyError as exc:
        raise ds.DatasetError(f"{kind} document lacks the field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ds.DatasetError(f"{kind} document is invalid: {exc}") from None


# the field types whose values a document holds as lists
_CONTAINERS = {"tuple": tuple, "frozenset": frozenset}


def _from_document(cls, doc: dict, optional=(), **convert):
    """``cls`` built from ``doc`` one field at a time, in declaration order, so a
    document missing several fields names the first.  ``convert[name](doc)`` gives
    a nested or renamed field.  Any other field is ``doc[name]``, made the tuple
    or frozenset its annotation names, or None when it is ``optional`` and missing.
    """
    values = {}
    for f in dataclasses.fields(cls):
        if f.name in convert:
            values[f.name] = convert[f.name](doc)
        elif f.name in optional and f.name not in doc:
            values[f.name] = None
        else:
            values[f.name] = _CONTAINERS.get(str(f.type).partition("[")[0], lambda v: v)(doc[f.name])
    return cls(**values)


def _read_scores_csv(path):
    def check_header(header):
        for required in ("group", "score"):
            if required not in header:
                raise ds.DatasetError(f"scores file needs a {required!r} column")

    _, table = ds.read_table(path, ("score", "y"), check_header)
    groups = table["group"]
    ids = table["id"] if "id" in table else np.arange(groups.size).astype(np.dtypes.StringDType())
    scores = ds.parse_numbers(table["score"], "score")
    outcome = ds.parse_numbers(table["y"], "y") if "y" in table else None
    return ids, groups, scores, outcome


def cmd_metrics(args) -> int:
    groups, scores, outcome = _read_scores_csv(args.input)[1:]
    outcome_kind = "classification" if outcome is not None and ds._classification_labels(outcome) else "regression"
    scoreset = metrics.ScoreSet(scores=scores, group=ds.factorize(groups), outcome=outcome, threshold=args.threshold)
    del groups  # the report needs only the codes
    grid = None
    if args.grid_k and outcome is not None:
        grid = ds.make_grid(outcome, scoreset.group, args.grid_k, args.grid_q)
    report = metrics.full_report(scoreset, grid=grid, bins=args.bins, outcome_kind=outcome_kind)
    _write_text(args.output, _report_doc("metrics", args.seed, report))
    return 0


def cmd_repair(args) -> int:
    ids, groups, scores = _read_scores_csv(args.input)[:3]
    enc = ds.factorize(groups)
    del groups  # the scores file's group column is written from the codes
    repaired, plan = transport.geodesic_repair(
        scores, enc, t=args.t, bins=args.bins, order=args.order, weights=args.weights
    )
    if args.scores_output:
        ds.write_table(args.scores_output, ["id", "group", "score", "repaired_score"],
                       [ids, np.array(enc.labels, dtype=object)[enc.codes], scores, repaired])
    bary = plan.barycenter_distribution()
    summary = {"trade_off": plan.trade_off, "bins": plan.bins, "order": plan.order, "groups": {}}
    for code, count in zip(plan.group_codes, enc.counts):
        summary["groups"][str(code)] = {
            "count": int(count),
            "w_to_barycenter_before": transport.wasserstein(plan.group_distributions[code], bary, order=plan.order),
            "w_to_barycenter_after": transport.wasserstein(plan.repaired_distribution(code), bary, order=plan.order),
        }
    if args.sweep:
        rows = []
        pairs = [f"w1:{a}-{b}" for i, a in enumerate(enc.labels) for b in enc.labels[i + 1:]]
        for t in args.sweep:
            swept = dataclasses.replace(plan, trade_off=t)
            dists = [swept.repaired_distribution(code) for code in plan.group_codes]
            rows.extend((t, pair, w) for pair, w in zip(pairs, transport.pairwise_wasserstein(dists, order=1)))
        _write_sweep(args.sweep_output, rows)
    _write_text(args.output, _report_doc("repair", args.seed, summary))
    return 0


def _load_dataset(args) -> ds.TabularDataset:
    schema = _parse_schema(args.schema)
    return ds.load_csv(args.input, schema, outcome_kind=args.outcome_kind)


def _model_to_json(model: ferm.KernelModel) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_plain(model)}


def _model_from_json(doc: dict) -> ferm.KernelModel:
    def array(key):
        return lambda d: None if d[key] is None else np.array(d[key], dtype=float)

    return _from_document(ferm.KernelModel, doc, ("solver",),
                          kernel=lambda d: _from_document(ferm.KernelSpec, d["kernel"]),
                          coef=array("coef"), dual_coef=array("dual_coef"), training_inputs=array("training_inputs"))


def cmd_ferm_train(args) -> int:
    data = _load_dataset(args)
    kernel = ferm.KernelSpec(kind=args.kernel, gamma=args.gamma)
    epsilon = None if args.epsilon < 0 else args.epsilon
    problem = ferm.FairERMProblem(
        loss=args.loss,
        lam=args.lam,
        epsilon=epsilon,
        kernel=kernel,
        include_sensitive=args.use_sensitive,
    )
    grid = ds.make_grid(data.outcome, data.sensitive, args.grid_k, args.grid_q)
    model = ferm.train_gferm(problem, data, grid)
    _write_text(args.model_output, _json_text(_model_to_json(model)))
    results = {
        "constraint_report": model.constraint_report,
        "objective_value": model.objective_value,
        "solver": model.solver,
    }
    if args.epsilon_sweep:
        rows = [
            (eps, "objective",
             ferm.train_gferm(dataclasses.replace(problem, epsilon=eps), data, grid).objective_value)
            for eps in args.epsilon_sweep
        ]
        _write_sweep(args.sweep_output, rows)
    _write_text(args.output, _report_doc("ferm-train", args.seed, results))
    return 0


def cmd_ferm_predict(args) -> int:
    model = _read_document(args.model, "model", _model_from_json)
    data = ds.load_csv(args.input, _parse_schema(args.schema), outcome_kind="regression")  # the outcome is not read
    scores = model.predict_dataset(data)
    ds.write_table(args.scores_output, ["id", "group", "score"],
                   [np.arange(data.n_records), data.sensitive, np.asarray(scores, dtype=float)])
    return 0


def _sem_to_json(sem: causal.LinearSEM) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, **_plain(sem)}
    del doc["edge_labels"]
    doc["edges"] = [{"from": u, "to": v, "label": sem.edge_labels.get((u, v), "fair")} for u, v in sem.edges]
    return doc


def _sem_from_json(doc: dict) -> causal.LinearSEM:
    return _from_document(causal.LinearSEM, doc,
                          equations=lambda d: tuple(_from_document(causal.Equation, e) for e in d["equations"]),
                          edge_labels=lambda d: {(e["from"], e["to"]): e["label"] for e in d["edges"]})


def _resolve_sem(args) -> causal.LinearSEM:
    if args.scenario is not None:
        return causal.scenario(args.scenario)
    return _read_document(args.sem, "SEM", _sem_from_json)


def _parse_record(text: str) -> dict[str, float]:
    record = json.loads(text)
    if not isinstance(record, dict):
        raise causal.CausalError(f"--record must be a JSON object of variable values, got {text!r}")
    return {name: causal._finite(value, f"--record: {name!r}") for name, value in record.items()}


def _paths(args, sem: causal.LinearSEM) -> causal.PathSelection:
    return causal.PathSelection.parse(args.paths) if args.paths else causal.all_unfair_paths(sem)


def cmd_sem_sample(args) -> int:
    causal.write_sample(_resolve_sem(args), args.n, args.scores_output, seed=args.seed)
    return 0


def cmd_sem_fit(args) -> int:
    skeleton = _resolve_sem(args)
    data = ds.load_csv(args.input, _parse_schema(args.schema), outcome_kind="regression")
    cols = {c.name: data.columns[c.name] for c in data.schema if c.role != "ignore"}
    fitted = causal.fit(cols, skeleton)
    _write_text(args.output, _json_text(_sem_to_json(fitted)))
    return 0


def cmd_sem_pse(args) -> int:
    sem = _resolve_sem(args)
    paths = _paths(args, sem)
    results = {
        "paths": [">".join(p) for p in paths.resolved(sem)],
        "closed_form": causal.path_specific_effect(sem, paths, args.a, args.a_bar),
    }
    if args.mc_samples is not None:
        results["monte_carlo"] = causal.path_specific_effect_mc(
            sem, paths, args.a, args.a_bar, n=args.mc_samples, seed=args.seed
        )
    _write_text(args.output, _report_doc("sem pse", args.seed, results))
    return 0


def cmd_sem_counterfactual(args) -> int:
    sem = _resolve_sem(args)
    paths = _paths(args, sem)
    record = _parse_record(args.record)
    value = causal.counterfactual(sem, record, paths, args.a_bar)
    results = {"record": record, "counterfactual_outcome": value}
    _write_text(args.output, _report_doc("sem counterfactual", args.seed, results))
    return 0


def cmd_sem_correct_scores(args) -> int:
    """Write each record's observed and corrected score.

    The moved inputs are abducted, replayed and scored ``causal._MC_BLOCK``
    records at a time into one corrected column, so the working set is the
    loaded data, its two score columns and a few blocks.
    """
    sem = _resolve_sem(args)
    paths = _paths(args, sem)
    model = _read_document(args.model, "model", _model_from_json)
    data = ds.load_csv(args.input, _parse_schema(args.schema), outcome_kind="regression")
    names = [c.name for c in data.schema if c.role != "ignore"]
    corrected = np.empty(data.n_records)
    for start in range(0, data.n_records, causal._MC_BLOCK):
        rows = slice(start, start + causal._MC_BLOCK)
        block = {name: values[rows] for name, values in data.columns.items()}
        block.update(causal.counterfactual_inputs(sem, {name: block[name] for name in names}, paths, args.a_bar))
        corrected[rows] = model.predict_dataset(dataclasses.replace(data, columns=block))
    ds.write_table(args.scores_output, ["id", "group", "score", "corrected_score"],
                   [np.arange(data.n_records), data.sensitive, model.predict_dataset(data), corrected])
    return 0


def _rep_to_json(model: multitask.RepresentationModel) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_plain(model), "max_gap_alignment": model.max_gap_alignment()}


def _rep_from_json(doc: dict) -> multitask.RepresentationModel:
    return _from_document(multitask.RepresentationModel, doc, ("penalty", "solver"),
                          gap_vectors=lambda d: d.get("gap_vectors", ()))


def cmd_mtl_train_rep(args) -> int:
    if args.eps is not None and args.mode != "relaxed":
        raise UsageError(f"mtl train-rep: --eps applies to --mode relaxed only, not {args.mode}")
    # no name holds the tasks, so train_representation frees the rows before it loads numpy.random
    model = multitask.train_representation(
        multitask.tasks_from_dataset(_load_dataset(args)), r=args.r, lam=args.lam, constraint=args.mode,
        penalty=args.penalty, epsilon=args.eps, seed=args.seed,
    )
    _write_text(args.output, _json_text(_rep_to_json(model)))
    return 0


def cmd_mtl_transfer(args) -> int:
    rep = _read_document(args.model, "representation", _rep_from_json)
    result = multitask.transfer(rep, multitask.task_from_dataset(_load_dataset(args)), lam=args.lam)
    _write_text(args.output, _report_doc("mtl transfer", args.seed, result._asdict()))
    return 0


def cmd_mtl_train_common(args) -> int:
    classes = tuple(c.strip() for c in args.classes.split(",") if c.strip())
    model = multitask.train_common_mean(
        multitask.task_from_dataset(_load_dataset(args)), theta=args.theta, lam=args.lam, rho=args.rho,
        constraint_classes=classes, use_predicted_sensitive=args.predict_sensitive,
        loss=args.loss, seed=args.seed,
    )
    results = {
        "shared": model.shared,
        "deviations": {str(k): w for k, w in model.deviations.items()},
        "constraint_residuals": model.constraint_residuals,
        "predictor_accuracy": None
        if model.predictor is None
        else model.predictor.holdout_accuracy,
    }
    _write_text(args.output, _report_doc("mtl train-common", args.seed, results))
    return 0


def cmd_datasets_list(args) -> int:
    lines = [f"{e.name}\t{e.n_samples}\t{e.n_features}\t{','.join(e.tasks)}" for e in ds.DATASET_REGISTRY.values()]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_datasets_describe(args) -> int:
    _write_text(args.output, _report_doc("datasets describe", args.seed, ds.describe_dataset(args.name)))
    return 0


# options with one meaning and one default wherever a subcommand declares them
_SHARED = {
    "--seed": dict(type=_seed, default=0),
    "--output": dict(default="-", help="report path, - for stdout"),
    "--input": dict(required=True),
    "--schema": dict(required=True, help="JSON object mapping column -> role, or @FILE"),
    "--model": dict(required=True, help="trained model JSON file"),
    "--bins": dict(type=int, default=None),
    "--grid-q": dict(type=int, default=2),
    "--sweep-output": dict(default="sweep.csv"),
    "--scores-output": dict(default="scores.csv"),
    "--paths": dict(default=None, help='e.g. "A>Y,A>D>Y"; defaults to all unfair paths'),
    "--a-bar": dict(type=_finite, default=1.0),
}
_REPORT = ("--seed", "--output")


def _leaf(sub, name: str, func, summary: str, *shared: str) -> _Parser:
    """Subcommand ``name`` running ``func``, declaring the ``_SHARED`` options listed."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    for flag in shared:
        p.add_argument(flag, **_SHARED[flag])
    return p


def _sem_source(p: _Parser) -> _Parser:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="college, music, police_a, police_b or police_c")
    source.add_argument("--sem", help="SEM JSON file")
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="fairkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "metrics", cmd_metrics, "fairness report for a scores file",
              "--input", "--bins", "--grid-q", *_REPORT)
    p.add_argument("--threshold", type=_finite, default=None)
    p.add_argument("--grid-k", type=int, default=0)

    p = _leaf(sub, "repair", cmd_repair, "transport scores toward the group barycenter",
              "--input", "--bins", "--sweep-output", *_REPORT)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--order", type=int, choices=[1, 2], default=2)
    p.add_argument("--weights", choices=["empirical", "uniform"], default="empirical")
    p.add_argument("--scores-output", default=None)
    p.add_argument("--sweep", type=_float_list, default=None, help="comma-separated t values for a plot CSV")

    p = _leaf(sub, "ferm-train", cmd_ferm_train, "train the cell-constrained model",
              "--input", "--schema", "--grid-q", "--sweep-output", *_REPORT)
    p.add_argument("--outcome-kind", choices=list(ds.OUTCOME_KINDS), default="classification")
    p.add_argument("--loss", choices=list(ferm.LOSSES), default="squared")
    p.add_argument("--lambda", dest="lam", type=_finite, default=1.0)
    p.add_argument("--epsilon", type=_finite, default=0.0, help="negative values drop the constraint")
    p.add_argument("--kernel", choices=["linear", "rbf"], default="linear")
    p.add_argument("--gamma", type=_finite, default=None)
    p.add_argument("--grid-k", type=int, default=2)
    p.add_argument("--use-sensitive", action="store_true")
    p.add_argument("--model-output", default="model.json")
    p.add_argument("--epsilon-sweep", type=_float_list, default=None)

    p = _leaf(sub, "ferm-predict", cmd_ferm_predict, "score a dataset with a trained model",
              "--model", "--input", "--schema", "--scores-output")

    sem = sub.add_parser("sem", help="structural equation model tooling").add_subparsers(
        dest="sem_command", required=True)
    p = _sem_source(_leaf(sem, "sample", cmd_sem_sample, "sample a dataset", "--seed", "--scores-output"))
    p.add_argument("--n", type=int, default=1000)
    _sem_source(_leaf(sem, "fit", cmd_sem_fit, "refit the coefficients to a dataset",
                      "--input", "--schema", "--output"))
    p = _sem_source(_leaf(sem, "pse", cmd_sem_pse, "path-specific effect", "--paths", "--a-bar", *_REPORT))
    p.add_argument("--a", type=_finite, default=0.0)
    p.add_argument("--mc-samples", type=int, default=None,
                   help="also estimate the effect from this many Monte-Carlo samples")
    p = _sem_source(_leaf(sem, "counterfactual", cmd_sem_counterfactual, "counterfactual outcome of one record",
                          "--paths", "--a-bar", *_REPORT))
    p.add_argument("--record", required=True, help="JSON object of variable values")
    _sem_source(_leaf(sem, "correct-scores", cmd_sem_correct_scores, "counterfactually corrected model scores",
                      "--model", "--input", "--schema", "--paths", "--a-bar", "--scores-output"))

    mtl = sub.add_parser("mtl", help="fair multitask training").add_subparsers(dest="mtl_command", required=True)
    rep = _leaf(mtl, "train-rep", cmd_mtl_train_rep, "train a shared representation", "--input", "--schema", *_REPORT)
    rep.add_argument("--r", type=int, default=1)
    rep.add_argument("--mode", choices=list(multitask.CONSTRAINT_MODES), default="equality")
    rep.add_argument("--penalty", type=_finite, default=None)
    rep.add_argument("--eps", type=_finite, default=None)
    transfer = _leaf(mtl, "transfer", cmd_mtl_transfer, "transfer a representation to a new task",
                     "--model", "--input", "--schema", *_REPORT)
    common = _leaf(mtl, "train-common", cmd_mtl_train_common, "common-mean multitask training",
                   "--input", "--schema", *_REPORT)
    common.add_argument("--theta", type=_finite, default=0.5)
    common.add_argument("--rho", type=_finite, default=1.0)
    common.add_argument("--classes", default="+,-")
    common.add_argument("--predict-sensitive", action="store_true")
    common.add_argument("--loss", choices=["squared", "linear"], default="squared")
    for p in (rep, transfer, common):
        p.add_argument("--outcome-kind", choices=list(ds.OUTCOME_KINDS), default="regression")
        p.add_argument("--lambda", dest="lam", type=_finite, default=0.1)

    datasets = sub.add_parser("datasets", help="bundled dataset registry").add_subparsers(
        dest="datasets_command", required=True)
    _leaf(datasets, "list", cmd_datasets_list, "one line per dataset", "--output")
    _leaf(datasets, "describe", cmd_datasets_describe, "one dataset's entry", *_REPORT).add_argument("name")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(str(exc).rstrip() + "\n")
        return 1
    except (ferm.SolverError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 3
    except (
        ds.DatasetError,
        metrics.MetricError,
        transport.TransportError,
        causal.CausalError,
        ferm.FermError,
        multitask.MtlError,
        json.JSONDecodeError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
