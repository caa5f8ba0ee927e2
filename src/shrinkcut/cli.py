"""Command-line interface.

Subcommands mirror the pipeline stages: ``build-qubo``, ``to-maxcut``,
``shrink``, ``solve``, ``pipeline``, ``bench``, ``verify``, ``repair``.
Every subcommand accepts ``--seed``, ``--out``, and ``--config`` (a
``key = value`` file whose keys are PipelineConfig fields). ``_settings``
merges one dict keyed by those fields, once per run: PipelineConfig's
defaults, then the file, then the flags given, the later source winning.
Every key is honoured, ``out``, ``kind`` and ``instance`` too, and each flag
stores under its field's name. The instance commands build
``PipelineConfig(**settings)``, which checks every setting before any stage
runs, also one the run never reads, each with the shared integer, number,
choice or on/off check of ``qubo``; ``solve``, ``shrink`` and ``to-maxcut
--model`` check the same settings with ``check_run_settings``, ``solve``
checks its annealing temperatures on every backend, and ``shrink --graph``
builds its ShrinkConfig from the same dict with ``shrink_config``. ``--k``
and ``--alpha`` are one mutually exclusive group.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
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
    check_run_settings,
    load_instance,
    repair,
    report_to_json,
    run_bench,
    run_pipeline,
    shrink_config,
    shrink_penalty,
    violations,
)
from .qubo import json_document, model_from_json, model_to_json
from .shrink import merge_steps_to_jsonl, run_shrink
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
    stop = parser.add_mutually_exclusive_group()
    stop.add_argument("--k", type=int, default=None, help="explicit target node count")
    stop.add_argument("--alpha", type=float, default=None, help="spectral energy fraction")
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
    parser.add_argument(
        "--sweeps", type=int, dest="sa_sweeps", metavar="SWEEPS", help="annealing sweeps"
    )
    parser.add_argument(
        "--layers", type=int, dest="vqe_layers", metavar="LAYERS", help="variational circuit layers"
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of the whole-run commands, ``pipeline`` and ``bench``."""
    _add_penalty_flags(parser)
    _add_shrink_flags(parser)
    _add_backend_flags(parser)
    parser.add_argument("--no-repair", action="store_false", default=None, dest="do_repair")
    parser.add_argument(
        "--no-local-search", action="store_false", default=None, dest="local_search"
    )
    parser.add_argument("--timings", choices=("wall", "zero"), default=None)


# every config key and flag dest is a PipelineConfig field; kind has no default
_DEFAULTS = {f.name: None if f.default is MISSING else f.default for f in fields(PipelineConfig)}
# fields annotated str (a path or a name among them) keep their text, so that
# "instance = 2024" names the file 2024
_TEXT = {f.name for f in fields(PipelineConfig) if f.type.startswith("str")}


def _coerce(raw: str, text: bool):
    value = raw.strip()
    low = value.lower()
    if low in ("none", "null", ""):
        return None
    if text:
        return value
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
    """Parse a ``key = value`` defaults file; '#' starts a comment and a key may appear once."""
    settings: dict = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ValueError(
                f"{path}: config key {key!r} is set twice, on lines {lines[key]} and {lineno}"
            )
        lines[key] = lineno
        settings[key] = _coerce(raw, key in _TEXT)
    return settings


def _settings(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Every PipelineConfig field's value: its default, overridden by the
    ``--config`` file's, overridden by the flag's. A None value counts as
    not given. A k from either source selects stop_mode "k"."""
    file_cfg = load_config_file(args.config) if args.config else {}
    settings = dict(_DEFAULTS)
    if args.command == "bench":
        why = "--instances and --strategies set each row's kind, instance and target size"
        for key in ("kind", "instance", "k", "stop_mode"):
            if getattr(args, key, None) is not None:
                parser.error(f"--{key} is not a bench option: {why}")
            if key in file_cfg:
                parser.error(f"{key!r} is not a bench config key: {why}")
        settings["timings"] = "zero"  # so that reruns give byte-identical CSVs
    for source in (file_cfg, vars(args)):
        settings.update((k, v) for k, v in source.items() if k in settings and v is not None)
    if settings["k"] is not None:
        file_mode = file_cfg.get("stop_mode")
        if file_mode not in (None, "k"):
            raise ValueError(f"k selects stop_mode 'k', but the config file sets {file_mode!r}")
        if getattr(args, "k", None) is None and getattr(args, "alpha", None) is not None:
            raise ValueError(
                f"the config file's k = {settings['k']} selects stop_mode 'k', which never "
                f"reads --alpha {args.alpha}; drop one of the two"
            )
        settings["stop_mode"] = "k"
    return settings


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


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


def _config(settings: dict, parser: argparse.ArgumentParser) -> PipelineConfig:
    if not settings["kind"] or not settings["instance"]:
        parser.error("--kind and --instance are required")
    return PipelineConfig(**settings)


def _load(settings: dict, parser: argparse.ArgumentParser):
    config = _config(settings, parser)
    return load_instance(config.kind, config.instance), config


def _cmd_build_qubo(settings, args, parser) -> int:
    inst, config = _load(settings, parser)
    _emit(model_to_json(build_model(inst, config)), settings["out"])
    return 0


def _cmd_to_maxcut(settings, args, parser) -> int:
    if args.model:
        check_run_settings(settings)  # every setting, as a run from the instance checks it
        model = model_from_json(Path(args.model).read_text())
    else:
        inst, config = _load(settings, parser)
        model = build_model(inst, config)
    _emit(graph_to_json(qubo_to_maxcut(model)), settings["out"])
    return 0


def _cmd_shrink(settings, args, parser) -> int:
    check_run_settings(settings)  # every setting, also on a graph that needs no instance
    config = shrink_config(settings, settings["seed"])
    penalty = summaries = None
    if args.graph:
        graph = graph_from_json(Path(args.graph).read_text())
    else:
        inst, run = _load(settings, parser)
        model = build_model(inst, run)
        graph = qubo_to_maxcut(model)
        if run.constraint_aware:
            penalty, summaries = shrink_penalty(inst, model)
    result = run_shrink(graph, config, penalty=penalty, summaries=summaries)
    if args.steps_out:
        Path(args.steps_out).write_text(merge_steps_to_jsonl(result.steps))
    _emit(graph_to_json(result.graph), settings["out"])
    return 0


def _cmd_solve(settings, args, parser) -> int:
    check_run_settings(settings)  # every setting, as a pipeline run checks it
    model = model_from_json(Path(args.model).read_text())
    solution = solve_qubo(
        model, settings["backend"], seed=settings["seed"], sweeps=settings["sa_sweeps"],
        layers=settings["vqe_layers"], t_start=args.t_start, t_end=args.t_end,
    )
    doc = {
        "instance": args.name,
        "bits": [int(b) for b in solution.bits],
        "energy": solution.energy,
    }
    _emit(json.dumps(doc, indent=2), settings["out"])
    return 0


def _cmd_pipeline(settings, args, parser) -> int:
    config = _config(settings, parser)
    report = run_pipeline(config)
    if config.out is None:
        _emit(report_to_json(report), None)
    return 0 if report.feasible_after else 1


def _cmd_bench(settings, args, parser) -> int:
    instances = []
    for spec in args.instances:
        if ":" not in spec:
            parser.error(f"instance spec {spec!r} must look like kind:path")
        kind, path = spec.split(":", 1)
        if kind not in KINDS:
            parser.error(f"unknown problem kind {kind!r} in {spec!r}")
        instances.append((kind, path))
    base = PipelineConfig(**{**settings, "kind": instances[0][0], "out": None})
    csv_text, failures = run_bench(
        base, instances, strategies=tuple(args.strategies), timings=base.timings
    )
    _emit(csv_text, settings["out"])
    for failure in failures:
        print(f"bench: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify(settings, args, parser) -> int:
    inst, _ = _load(settings, parser)
    _, bits = _load_solution(args.solution)
    problems = violations(inst, bits)
    if problems:
        for line in problems:
            print(line)
        return 1
    print("feasible")
    return 0


def _cmd_repair(settings, args, parser) -> int:
    inst, _ = _load(settings, parser)
    name, bits = _load_solution(args.solution)
    report = repair(inst, bits)
    doc = {"instance": name, "bits": [int(b) for b in np.asarray(report.bits).reshape(-1)]}
    _emit(json.dumps(doc, indent=2), settings["out"])
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
    _add_run_flags(p)
    p.add_argument("--name", default=None, help="report label (default: file stem)")
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("bench", help="sweep instances x strategies into a CSV")
    _add_common(p)
    _add_run_flags(p)
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
        return args.handler(_settings(args, parser), args, parser)
    except (ParseError, ValueError, OSError, PipelineError) as exc:
        print(f"shrinkcut: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
