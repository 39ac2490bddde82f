"""Command-line surface: gen, check, analyze, export.

Reports are JSON objects with deterministic key order; identical
inputs give byte-identical reports apart from the timing field.  Exit
codes: 0 all requested checks hold, 1 a check failed (witness
present), 2 input error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path
from typing import Any

from . import config as runtime
from . import fileio
from .closure import ClosureSystem
from .dimension import join_dimension, verify_duality
from .errors import CapacityError, InputError
from .geometry import (
    Verdict,
    check_anti_exchange,
    check_convexity_characterization,
    check_super_solvable,
    find_super_solvable_order,
    is_convex_geometry,
    is_distributive,
    is_modular,
)
from .lattices import as_lattice
from .obstructions import independent_sets, obstruction_report
from .ordergen import (
    bichain_from_permutation,
    compact_semilattice_of_geometry,
    interval_system,
    multichain_system,
    omega_prefix,
    suborder_system,
    subsemilattice_system,
)
from .relconvex import relconvex_system

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_CAPACITY_ERROR = 3


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--bound", type=int, help="enumeration cap", **kwargs)
    parser.add_argument(
        "--seed",
        type=int,
        help="seed echoed into reports (reserved for randomized generators)",
        **kwargs,
    )
    parser.add_argument("--output", type=Path, help="write result here", **kwargs)
    parser.add_argument("--format", choices=("json", "text"), **kwargs)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged,
    and every call starts from a fresh namespace with the defaults."""
    parser = argparse.ArgumentParser(
        prog="convexitylab",
        description="Construct, verify and analyze finite closure systems.",
    )
    _add_global_options(parser, suppress=False)
    parser.set_defaults(bound=None, seed=None, output=None, format="json")
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate a system or semilattice file")
    gen.add_argument(
        "source",
        help=(
            "points:<file> | perm:<images> | chain-intervals:<n> | "
            "subsemilattices:<poset-file> | suborders:<poset-file> | "
            "multichain:<file> | omega:<N>"
        ),
    )

    check = sub.add_parser("check", parents=[common], help="run a verification on a system file")
    check.add_argument("file", type=Path)
    check.add_argument(
        "which",
        help=(
            "anti-exchange | convex-geometry | characterization | "
            "super-solvable[:ordering] | distributive | modular"
        ),
    )

    analyze = sub.add_parser("analyze", parents=[common], help="run an analysis on a file")
    analyze.add_argument("file", type=Path)
    analyze.add_argument(
        "which",
        help="irreducibles | independent | dimension | obstruction:boolean=n,omega=N | duality",
    )

    export = sub.add_parser("export", parents=[common], help="export the closed-set diagram")
    export.add_argument("file", type=Path)
    export.add_argument("fmt", choices=("dot", "json"))
    return parser


def _read(path: Path) -> Any:
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return fileio.parse_any(text)


def _gen_payload(source: str, bound: int | None) -> dict[str, Any]:
    kind, _, arg = source.partition(":")
    if not arg:
        raise InputError(f"source '{source}' needs an argument after ':'")
    provenance = {"generator": source, "tool": "convexitylab"}
    if kind == "chain-intervals":
        n = _nonnegative_int(arg)
        runtime.check_ground_size(n, bound)  # before building its n(n+1)/2 intervals
        system = interval_system(n)
    elif kind in ("perm", "multichain"):
        if kind == "perm":
            images = fileio.permutation_from_payload(fileio.parse_any(arg))
            chains = bichain_from_permutation(images)
        else:
            chains = fileio.multichain_from_payload(_read(Path(arg)))
        runtime.check_ground_size(chains.ground.size, bound)  # before its n + 1 prefixes per order
        system = multichain_system(chains)
    elif kind == "points":
        system = relconvex_system(fileio.points_from_payload(_read(Path(arg))))
    elif kind == "subsemilattices":
        system = subsemilattice_system(fileio.poset_from_payload(_read(Path(arg))))
    elif kind == "suborders":
        system = suborder_system(fileio.poset_from_payload(_read(Path(arg))))
    elif kind == "omega":
        payload = fileio.semilattice_to_payload(omega_prefix(_nonnegative_int(arg)).semilattice())
        payload["provenance"] = provenance
        return payload
    else:
        raise InputError(f"unknown generator '{kind}'")
    return fileio.system_to_payload(system, bound, provenance)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise InputError(f"expected an integer, got '{text}'")
    if value < 0:
        raise InputError(f"expected a nonnegative integer, got {value}")
    return value


def _verdict_into(report: dict[str, Any], name: str, verdict: Verdict) -> None:
    report["verdicts"][name] = verdict.holds
    if verdict.witness is not None:
        report["witnesses"][name] = verdict.witness


def _run_check(system: ClosureSystem, which: str, bound: int | None, report: dict) -> None:
    name, _, arg = which.partition(":")
    if name == "anti-exchange":
        _verdict_into(report, name, check_anti_exchange(system, bound))
    elif name == "convex-geometry":
        _verdict_into(report, name, is_convex_geometry(system, bound))
    elif name == "characterization":
        lattice = system.enumerate_closed_sets(bound)
        _verdict_into(report, name, check_convexity_characterization(lattice))
    elif name == "super-solvable":
        if arg:
            ordering = tuple(_nonnegative_int(part) for part in arg.split(","))
            _verdict_into(report, name, check_super_solvable(system, ordering, bound))
        else:
            found = find_super_solvable_order(system, bound)
            report["verdicts"][name] = found is not None
            if found is not None:
                report["results"]["ordering"] = list(found)
    elif name in ("distributive", "modular"):
        lattice = system.enumerate_closed_sets(bound)
        checker = is_distributive if name == "distributive" else is_modular
        _verdict_into(report, name, checker(lattice))
    else:
        raise InputError(f"unknown check '{which}'")


def _run_analyze(payload: Any, which: str, bound: int | None, report: dict) -> None:
    name, _, arg = which.partition(":")
    is_system = isinstance(payload, dict) and "closed" in payload
    is_semilattice = isinstance(payload, dict) and "join" in payload
    if not is_system and not is_semilattice:
        raise InputError("file is neither a system nor a semilattice")
    system = fileio.system_from_payload(payload) if is_system else None
    semilattice = fileio.semilattice_from_payload(payload) if is_semilattice else None

    if name == "irreducibles":
        if system is None:
            raise InputError("irreducibles analysis needs a system file")
        lattice = as_lattice(system.enumerate_closed_sets(bound))
        report["results"]["join_irreducibles"] = [
            lattice.labels[i] for i in lattice.join_irreducibles()
        ]
        report["results"]["meet_irreducibles"] = [
            lattice.labels[i] for i in lattice.meet_irreducibles()
        ]
    elif name == "independent":
        if system is None:
            raise InputError("independence analysis needs a system file")
        size, witness = independent_sets(system, bound)
        report["results"]["independent_size"] = size
        report["witnesses"]["independent"] = [system.ground.labels[i] for i in witness]
    elif name == "dimension":
        source = semilattice if system is None else system.enumerate_closed_sets(bound)
        report["results"]["join_dimension"] = join_dimension(source)
    elif name == "obstruction":
        max_boolean, max_omega = _parse_obstruction_arg(arg)
        host = semilattice or compact_semilattice_of_geometry(system, bound)
        result = obstruction_report(host, max_boolean, max_omega)
        report["results"]["boolean_embeds"] = {
            str(k): v for k, v in result.boolean_embeds.items()
        }
        report["results"]["omega_embeds"] = {
            str(k): v for k, v in result.omega_embeds.items()
        }
    elif name == "duality":
        if system is None:
            raise InputError("duality analysis needs a system file")
        lattice = system.enumerate_closed_sets(bound)
        _verdict_into(report, name, verify_duality(lattice))
    else:
        raise InputError(f"unknown analysis '{which}'")


def _parse_obstruction_arg(arg: str) -> tuple[int, int]:
    max_boolean, max_omega = 0, 0
    if not arg:
        raise InputError("obstruction needs arguments like boolean=2,omega=2")
    for part in arg.split(","):
        key, _, value = part.partition("=")
        if key == "boolean":
            max_boolean = _nonnegative_int(value)
        elif key == "omega":
            max_omega = _nonnegative_int(value)
        else:
            raise InputError(f"unknown obstruction parameter '{key}'")
    return max_boolean, max_omega


def _render_text(report: dict[str, Any]) -> str:
    lines = [f"command: {' '.join(report['command'])}"]
    for name, value in sorted(report["results"].items()):
        lines.append(f"result {name}: {value}")
    for name, holds in sorted(report["verdicts"].items()):
        lines.append(f"check {name}: {'PASS' if holds else 'FAIL'}")
    for name, witness in sorted(report["witnesses"].items()):
        lines.append(f"witness {name}: {witness}")
    lines.append(f"timing_ms: {report['timing_ms']}")
    return "\n".join(lines) + "\n"


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        args.output.write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        bound = runtime.enumeration_bound(args.bound)
        started = time.monotonic()
        report: dict[str, Any] = {
            "command": argv,
            "bound": bound,
            "seed": args.seed,
            "results": {},
            "verdicts": {},
            "witnesses": {},
        }
        if args.verb == "gen":
            payload = _gen_payload(args.source, bound)
            _emit(args, fileio.dumps(payload))
            return EXIT_OK
        if args.verb == "export":
            system = fileio.system_from_payload(_read(args.file))
            lattice = system.enumerate_closed_sets(bound)
            if args.fmt == "dot":
                _emit(args, fileio.lattice_to_dot(lattice))
            else:
                _emit(args, fileio.dumps(fileio.lattice_to_payload(lattice)))
            return EXIT_OK
        if args.verb == "check":
            system = fileio.system_from_payload(_read(args.file))
            _run_check(system, args.which, bound, report)
        elif args.verb == "analyze":
            _run_analyze(_read(args.file), args.which, bound, report)
        report["timing_ms"] = int((time.monotonic() - started) * 1000)
        if args.format == "json":
            _emit(args, fileio.dumps(report))
        else:
            _emit(args, _render_text(report))
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT_ERROR
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return EXIT_CAPACITY_ERROR
    return EXIT_OK if all(report["verdicts"].values()) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
