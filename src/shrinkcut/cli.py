"""Command-line interface.

Subcommands mirror the pipeline stages: ``build-qubo``, ``to-maxcut``,
``shrink``, ``solve``, ``pipeline``, ``bench``, ``verify``, ``repair``.
Every subcommand accepts ``--seed``, ``--out``, and ``--config`` (a
``key = value`` file whose keys mirror PipelineConfig fields and act as
defaults; explicit flags win).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .instances import ParseError
from .maxcut import graph_from_json, graph_to_json, qubo_to_maxcut
from .pipeline import (
    KINDS,
    STRATEGIES,
    PipelineConfig,
    PipelineError,
    build_model,
    load_instance,
    repair,
    report_to_json,
    run_bench,
    run_pipeline,
    shrink_penalty,
    violations,
)
from .qubo import json_document, model_from_json, model_to_json
from .shrink import ShrinkConfig, merge_steps_to_jsonl, run_shrink
from .solvers import solve_qubo


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="top-level random seed")
    parser.add_argument("--config", default=None, help="key = value defaults file")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_penalty_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", choices=KINDS, help="problem family of --instance")
    parser.add_argument("--instance", help="instance file path")
    parser.add_argument(
        "--penalty-multiplier", type=float, default=None, dest="penalty_multiplier"
    )
    parser.add_argument(
        "--use-slack", action=argparse.BooleanOptionalAction, default=None, dest="use_slack"
    )


def _add_shrink_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=None, help="explicit target node count")
    parser.add_argument("--alpha", type=float, default=None, help="spectral energy fraction")
    parser.add_argument(
        "--energy-order",
        choices=("ascending", "descending"),
        default=None,
        dest="energy_order",
    )
    parser.add_argument(
        "--weight-mode", choices=("absolute", "raw"), default=None, dest="weight_mode"
    )
    parser.add_argument(
        "--lambda", type=float, default=None, dest="lam", help="constraint-penalty weight"
    )
    parser.add_argument("--recalc", choices=("fixed", "delta", "tau", "local"), default=None)
    parser.add_argument("--r", type=int, default=None, help="merges between re-solves")
    parser.add_argument("--delta", type=float, default=None, help="edge-drift threshold")
    parser.add_argument("--tau", type=float, default=None, help="correlation-strength trigger")
    parser.add_argument(
        "--reference-protected",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="reference_protected",
    )
    parser.add_argument("--sdp-rank", type=int, default=None, dest="sdp_rank")
    parser.add_argument(
        "--sdp-tol",
        type=float,
        default=None,
        dest="sdp_tol",
        help="stop the relaxation once a sweep raises its objective by at most this fraction",
    )
    parser.add_argument("--sdp-max-sweeps", type=int, default=None, dest="sdp_max_sweeps")
    parser.add_argument(
        "--constraint-aware",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="constraint_aware",
    )


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("exact", "sa", "vqe"), default=None)
    parser.add_argument("--sweeps", type=int, default=None, help="annealing sweeps")
    parser.add_argument("--layers", type=int, default=None, help="variational circuit layers")


_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}


def _coerce(raw: str):
    value = raw.strip()
    low = value.lower()
    if low in ("none", "null", ""):
        return None
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def load_config_file(path: str | Path) -> dict:
    """Parse a ``key = value`` defaults file; '#' starts a comment."""
    settings: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        settings[key] = _coerce(raw)
    return settings


# config fields whose CLI flags have other names
_FLAG_NAMES = {"sa_sweeps": "sweeps", "vqe_layers": "layers"}


def _resolve(args: argparse.Namespace, file_cfg: dict, name: str, default):
    """CLI flag if given, else config-file value, else the built-in default."""
    value = getattr(args, _FLAG_NAMES.get(name, name), None)
    if value is not None:
        return value
    if name in file_cfg and file_cfg[name] is not None:
        return file_cfg[name]
    return default


def _file_cfg(args: argparse.Namespace) -> dict:
    if getattr(args, "config", None):
        return load_config_file(args.config)
    return {}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _stop_mode(args: argparse.Namespace, file_cfg: dict) -> str:
    """A ``k`` from the flag or the config file selects stop_mode "k"."""
    k = _resolve(args, file_cfg, "k", None)
    if k is None:
        return _resolve(args, file_cfg, "stop_mode", ShrinkConfig.stop_mode)
    file_mode = file_cfg.get("stop_mode")
    if file_mode not in (None, "k"):
        raise ValueError(f"k selects stop_mode 'k', but the config file sets {file_mode!r}")
    if getattr(args, "k", None) is None and getattr(args, "alpha", None) is not None:
        raise ValueError(
            f"the config file's k = {k} selects stop_mode 'k', which never reads "
            f"--alpha {args.alpha}; drop one of the two"
        )
    return "k"


def _pipeline_config(args: argparse.Namespace, file_cfg: dict, **overrides) -> PipelineConfig:
    values = {}
    for f in fields(PipelineConfig):
        values[f.name] = _resolve(args, file_cfg, f.name, f.default)
    if getattr(args, "no_repair", False):
        values["do_repair"] = False
    if getattr(args, "no_local_search", False):
        values["local_search"] = False
    values["stop_mode"] = _stop_mode(args, file_cfg)
    values.update(overrides)
    return PipelineConfig(**values)


def _load_solution(path: str) -> tuple[str, np.ndarray]:
    text = Path(path).read_text()
    what = f"{path}: solution JSON"
    with json_document(text, what, ("instance", "bits")) as doc:
        bits = doc["bits"]
        if not all(type(bit) is int and bit in (0, 1) for bit in bits):
            raise ValueError(f"{what}: bits must be a list of 0/1 integers")
        return doc["instance"], np.array(bits, dtype=int)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _require_instance(args: argparse.Namespace, parser: argparse.ArgumentParser):
    if not args.kind or not args.instance:
        parser.error("--kind and --instance are required")
    return load_instance(args.kind, args.instance)


def _build_model_from_args(args: argparse.Namespace, file_cfg: dict, parser):
    inst = _require_instance(args, parser)
    config = _pipeline_config(args, file_cfg, kind=args.kind, instance=args.instance)
    return inst, build_model(inst, config)


def _cmd_build_qubo(args, parser) -> int:
    file_cfg = _file_cfg(args)
    _, model = _build_model_from_args(args, file_cfg, parser)
    _emit(model_to_json(model), args.out)
    return 0


def _cmd_to_maxcut(args, parser) -> int:
    file_cfg = _file_cfg(args)
    if args.model:
        model = model_from_json(Path(args.model).read_text())
    else:
        _, model = _build_model_from_args(args, file_cfg, parser)
    _emit(graph_to_json(qubo_to_maxcut(model)), args.out)
    return 0


def _cmd_shrink(args, parser) -> int:
    file_cfg = _file_cfg(args)
    penalty = summaries = None
    if args.graph:
        graph = graph_from_json(Path(args.graph).read_text())
    else:
        inst, model = _build_model_from_args(args, file_cfg, parser)
        graph = qubo_to_maxcut(model)
        aware = _resolve(args, file_cfg, "constraint_aware", PipelineConfig.constraint_aware)
        if aware:
            penalty, summaries = shrink_penalty(inst, model)

    if args.k is not None and args.alpha is not None:
        parser.error("--k and --alpha are mutually exclusive")
    values = {f.name: _resolve(args, file_cfg, f.name, f.default) for f in fields(ShrinkConfig)}
    values["stop_mode"] = _stop_mode(args, file_cfg)
    config = ShrinkConfig(**values)
    result = run_shrink(graph, config, penalty=penalty, summaries=summaries)
    if args.steps_out:
        Path(args.steps_out).write_text(merge_steps_to_jsonl(result.steps))
    _emit(graph_to_json(result.graph), args.out)
    return 0


def _cmd_solve(args, parser) -> int:
    file_cfg = _file_cfg(args)
    model = model_from_json(Path(args.model).read_text())
    backend = _resolve(args, file_cfg, "backend", PipelineConfig.backend)
    options = {}
    if backend == "sa":  # None leaves solve_sa's own default
        sweeps = _resolve(args, file_cfg, "sa_sweeps", None)
        options = {"sweeps": sweeps, "t_start": args.t_start, "t_end": args.t_end}
    elif backend == "vqe":
        options = {"layers": _resolve(args, file_cfg, "vqe_layers", PipelineConfig.vqe_layers)}
    seed = _resolve(args, file_cfg, "seed", PipelineConfig.seed)
    solution = solve_qubo(model, backend=backend, seed=seed, **options)
    doc = {
        "instance": args.name,
        "bits": [int(b) for b in solution.bits],
        "energy": solution.energy,
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _cmd_pipeline(args, parser) -> int:
    file_cfg = _file_cfg(args)
    if not args.kind or not args.instance:
        parser.error("--kind and --instance are required")
    if args.k is not None and args.alpha is not None:
        parser.error("--k and --alpha are mutually exclusive")
    config = _pipeline_config(
        args, file_cfg, kind=args.kind, instance=args.instance, out=args.out
    )
    report = run_pipeline(config)
    if args.out is None:
        _emit(report_to_json(report), None)
    return 0 if report.feasible_after else 1


def _cmd_bench(args, parser) -> int:
    if args.k is not None:
        parser.error("--k is not a bench option: each strategy sets its own target size")
    file_cfg = _file_cfg(args)
    for key in ("k", "stop_mode"):
        if key in file_cfg:
            parser.error(
                f"{key!r} is not a bench config key: each strategy sets its own target size"
            )
    instances = []
    for spec in args.instances:
        if ":" not in spec:
            parser.error(f"instance spec {spec!r} must look like kind:path")
        kind, path = spec.split(":", 1)
        if kind not in KINDS:
            parser.error(f"unknown problem kind {kind!r} in {spec!r}")
        instances.append((kind, path))
    base = _pipeline_config(args, file_cfg, kind=instances[0][0], instance=None, out=None)
    # Each strategy sets only the stop; check the other shrink settings once, before any row.
    shared = {f.name: getattr(base, f.name) for f in fields(ShrinkConfig)}
    ShrinkConfig(**{**shared, "stop_mode": "spectral", "k": None})
    timings = _resolve(args, file_cfg, "timings", None) or "zero"
    csv_text, failures = run_bench(
        base, instances, strategies=tuple(args.strategies), timings=timings
    )
    _emit(csv_text, args.out)
    for failure in failures:
        print(f"bench: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify(args, parser) -> int:
    inst = _require_instance(args, parser)
    _, bits = _load_solution(args.solution)
    problems = violations(inst, bits)
    if problems:
        for line in problems:
            print(line)
        return 1
    print("feasible")
    return 0


def _cmd_repair(args, parser) -> int:
    inst = _require_instance(args, parser)
    name, bits = _load_solution(args.solution)
    report = repair(inst, bits)
    doc = {"instance": name, "bits": [int(b) for b in np.asarray(report.bits).reshape(-1)]}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkcut",
        description="Penalized QUBO construction, Max-Cut shrinking, and repair pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-qubo", help="instance file -> QUBO model JSON")
    _add_common(p)
    _add_penalty_flags(p)
    p.set_defaults(handler=_cmd_build_qubo)

    p = sub.add_parser("to-maxcut", help="QUBO model (or instance) -> Max-Cut graph JSON")
    _add_common(p)
    _add_penalty_flags(p)
    p.add_argument("--model", default=None, help="QUBO model JSON path")
    p.set_defaults(handler=_cmd_to_maxcut)

    p = sub.add_parser("shrink", help="contract a Max-Cut graph to a target size")
    _add_common(p)
    _add_penalty_flags(p)
    _add_shrink_flags(p)
    p.add_argument("--graph", default=None, help="Max-Cut graph JSON path")
    p.add_argument("--steps-out", default=None, dest="steps_out", help="merge log JSONL path")
    p.set_defaults(handler=_cmd_shrink)

    p = sub.add_parser("solve", help="minimize a QUBO model with a chosen backend")
    _add_common(p)
    _add_backend_flags(p)
    p.add_argument("--model", required=True, help="QUBO model JSON path")
    p.add_argument("--t-start", type=float, default=None, dest="t_start")
    p.add_argument("--t-end", type=float, default=None, dest="t_end")
    p.add_argument("--name", default="model", help="label for the solution JSON")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("pipeline", help="full instance -> report run")
    _add_common(p)
    _add_penalty_flags(p)
    _add_shrink_flags(p)
    _add_backend_flags(p)
    p.add_argument("--no-repair", action="store_true", dest="no_repair")
    p.add_argument("--no-local-search", action="store_true", dest="no_local_search")
    p.add_argument("--timings", choices=("wall", "zero"), default=None)
    p.add_argument("--name", default=None, help="report label (default: file stem)")
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("bench", help="sweep instances x strategies into a CSV")
    _add_common(p)
    _add_penalty_flags(p)
    _add_shrink_flags(p)
    _add_backend_flags(p)
    p.add_argument(
        "--instances",
        nargs="+",
        required=True,
        metavar="KIND:PATH",
        help="instances as kind:path, e.g. mis:data/mis/1tc.8.txt",
    )
    p.add_argument(
        "--strategies", nargs="+", default=list(STRATEGIES), choices=list(STRATEGIES)
    )
    p.add_argument("--no-repair", action="store_true", dest="no_repair")
    p.add_argument("--no-local-search", action="store_true", dest="no_local_search")
    p.add_argument("--timings", choices=("wall", "zero"), default=None)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("verify", help="check a solution JSON against its instance")
    _add_common(p)
    _add_penalty_flags(p)
    p.add_argument("--solution", required=True, help="solution JSON path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("repair", help="make a solution JSON feasible")
    _add_common(p)
    _add_penalty_flags(p)
    p.add_argument("--solution", required=True, help="solution JSON path")
    p.set_defaults(handler=_cmd_repair)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ParseError, ValueError, OSError, PipelineError) as exc:
        print(f"shrinkcut: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
