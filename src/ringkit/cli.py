"""Command-line front end.

Exit codes: 0 computed, 1 parse/usage error, 2 precondition rejection,
3 truncation-inconclusive (a verdict-blocking truncation flag fired).
Reports are printed as human-readable text, or as a JSON run report
with --json; identical invocations produce identical JSON apart from
the wall-time field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, corpus, ghost, homalg, koszul, simplicial
from .errors import DSLError, PreconditionError, ToolkitError, ValidationError
from .polycore import RingPresentation, parse_map, parse_poly, parse_ring

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_TRUNCATION = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems on this tool's exit code."""

    def error(self, message):
        raise DSLError(message)


def _int_at_least(lo):
    """argparse type: an integer no smaller than lo."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


_non_negative = _int_at_least(0)


def _build_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="ringkit", description=__doc__)
    p.add_argument("--version", action="version", version=f"ringkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, levels=False, degree=False, homological=False):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument(
            "--order",
            choices=["degrevlex", "deglex"],
            default="degrevlex",
            help="monomial order",
        )
        if levels:
            sp.add_argument("--levels", type=_int_at_least(2), default=5, metavar="L")
        if degree:
            sp.add_argument(
                "--degree-bound", type=_non_negative, default=None, metavar="D"
            )
        if homological:
            sp.add_argument(
                "--homological-bound", type=_non_negative, default=8, metavar="N"
            )

    sp = sub.add_parser("classify", help="regular / complete intersection / other")
    sp.add_argument("ring")
    add_common(sp)

    sp = sub.add_parser("ghost", help="ghost analysis of a self-map")
    sp.add_argument("ring")
    sp.add_argument("--map", required=True, dest="map_text")
    sp.add_argument("--jmax", type=int, default=None)
    add_common(sp)

    sp = sub.add_parser("aq", help="André-Quillen homology dimensions")
    sp.add_argument("ring")
    add_common(sp, levels=True, degree=True)

    sp = sub.add_parser("koszul", help="Koszul homology dimension table")
    sp.add_argument("ring")
    sp.add_argument(
        "--sequence", default=None, help="comma-separated polynomials (default: variables)"
    )
    add_common(sp, degree=True)

    sp = sub.add_parser("betti", help="Betti table of the residue field")
    sp.add_argument("ring")
    add_common(sp, degree=True, homological=True)

    sp = sub.add_parser("tor", help="Tor of k against k or a Frobenius pushforward")
    sp.add_argument("ring")
    sp.add_argument("--with", dest="coefficients", choices=["k", "frobenius"], default="k")
    sp.add_argument("--power", type=int, default=1)
    add_common(sp, degree=True, homological=True)

    sp = sub.add_parser("kunz", help="regularity vs Frobenius Tor-vanishing")
    sp.add_argument("ring")
    sp.add_argument("--power", type=int, default=1)
    sp.add_argument("--homological-bound", type=_non_negative, default=6, metavar="N")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--order", choices=["degrevlex", "deglex"], default="degrevlex")

    sp = sub.add_parser(
        "ghost-trivial", help="twisted-Koszul Tor vs Betti convolution"
    )
    sp.add_argument("ring")
    sp.add_argument("--power", type=int, default=1)
    sp.add_argument("--homological-bound", type=_non_negative, default=6, metavar="N")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--order", choices=["degrevlex", "deglex"], default="degrevlex")

    sp = sub.add_parser("corpus", help="verify the bundled (or given) corpus")
    sp.add_argument("path", nargs="?", default=None)
    sp.add_argument("--json", action="store_true")

    return p


def _ring(args):
    R = parse_ring(args.ring)
    order = getattr(args, "order", "degrevlex")
    if order != "degrevlex":
        R = RingPresentation(R.field, R.variables, R.generators, order)
    return R


def _finish(args, command, inputs, results, text, started, inconclusive=False):
    report = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(text)
    return (EXIT_TRUNCATION if inconclusive else EXIT_OK), report


def _cmd_classify(args, started):
    R = _ring(args)
    rep = ghost.classify(R)
    text = (
        f"{R.to_dsl()}: {rep.verdict}\n"
        f"embdim={rep.embdim} dim={rep.dim} minimal generators={rep.num_min_gens}"
    )
    return _finish(args, "classify", {"ring": R.to_dsl()}, rep.to_json(), text, started)


def _cmd_ghost(args, started):
    R = _ring(args)
    images = parse_map(args.map_text, R, R)
    phi = ghost.validate_map(images, R, R)
    rep = ghost.ghost_report(phi, args.jmax)
    lines = [
        f"{R.to_dsl()} with {rep.map}",
        f"conormal_zero={str(rep.conormal_zero).lower()}",
        f"contracting_j={rep.contracting_j} (bound {rep.contracting_bound})",
        f"ci_status={rep.classification.verdict}",
        f"ci_koszul_ghost={rep.koszul_ghost}",
        f"ghost_verdict={rep.ghost_verdict}",
    ]
    return _finish(
        args,
        "ghost",
        {"ring": R.to_dsl(), "map": rep.map},
        rep.to_json(),
        "\n".join(lines),
        started,
    )


def _cmd_aq(args, started):
    R = _ring(args)
    D = args.degree_bound if args.degree_bound is not None else 10
    res = simplicial.aq_dims(R, args.levels, D)
    text = (
        f"{R.to_dsl()}: AQ dims {tuple(res.dims)} "
        f"(degrees 0..{args.levels - 2}, L={args.levels}, D={D})"
    )
    return _finish(
        args,
        "aq",
        {"ring": R.to_dsl(), "levels": args.levels, "degree_bound": D},
        res.to_json(),
        text,
        started,
        bool(res.flags),
    )


def _cmd_koszul(args, started):
    R = _ring(args)
    if args.sequence:
        seq = [parse_poly(s, R.ambient) for s in args.sequence.split(",")]
    else:
        seq = R.variable_polys()
    K = koszul.koszul(R, seq)
    table = koszul.koszul_homology_dims(K, args.degree_bound)
    lines = [f"Koszul complex on ({', '.join(str(f) for f in seq)}) over {R.to_dsl()}"]
    lines.append(f"ranks: {K.complex.ranks()}")
    lines.append(f"homology totals (through degree {table.degree_bound}): {table.totals()}")
    for (i, j), d in sorted(table.entries.items()):
        lines.append(f"  H_{i} degree {j}: dim {d}")
    results = table.to_json()
    results["ranks"] = K.complex.ranks()
    inconclusive = bool(table.warnings)
    return _finish(
        args,
        "koszul",
        {"ring": R.to_dsl(), "sequence": [str(f) for f in seq]},
        results,
        "\n".join(lines),
        started,
        inconclusive,
    )


def _blocking_resolution_flags(flags):
    return [f for f in flags if f.startswith("syzygy-at-degree-bound")]


def _cmd_betti(args, started):
    R = _ring(args)
    M = homalg.residue_field_module(R)
    res = homalg.minimal_resolution(M, args.homological_bound, args.degree_bound)
    table = res.betti
    text = (
        f"Betti table of k over {R.to_dsl()} "
        f"(N={table.homological_bound}, D={table.degree_bound})\n" + table.to_text()
    )
    inconclusive = bool(_blocking_resolution_flags(table.flags))
    return _finish(
        args,
        "betti",
        {"ring": R.to_dsl(), "N": args.homological_bound, "D": table.degree_bound},
        table.to_json(),
        text,
        started,
        inconclusive,
    )


def _cmd_tor(args, started):
    R = _ring(args)
    k_mod = homalg.residue_field_module(R)
    if args.coefficients == "k":
        N = k_mod
        desc = "k"
    else:
        N = ghost.frobenius_pushforward(R, args.power)
        desc = f"frobenius pushforward (e={args.power})"
    table = homalg.tor_dims(k_mod, N, args.homological_bound, args.degree_bound)
    lines = [
        f"Tor(k, {desc}) over {R.to_dsl()}",
        f"totals: {table.totals()}",
    ]
    inconclusive = "tor-classes-at-degree-bound" in table.flags or bool(
        _blocking_resolution_flags(table.flags)
    )
    return _finish(
        args,
        "tor",
        {"ring": R.to_dsl(), "with": desc, "N": args.homological_bound},
        table.to_json(),
        "\n".join(lines),
        started,
        inconclusive,
    )


def _cmd_kunz(args, started):
    R = _ring(args)
    rep = ghost.kunz_report(R, args.power, args.homological_bound)
    lines = [
        f"{R.to_dsl()}: {rep.classification.verdict}",
        f"pushforward rank {rep.pushforward_rank}, "
        f"Frobenius conormal zero: {rep.frobenius_conormal_zero}",
        f"Tor totals through {args.homological_bound}: {rep.tor.totals()}",
        f"consistent-with-Kunz: {str(rep.consistent).lower()}",
    ]
    inconclusive = "tor-classes-at-degree-bound" in rep.tor.flags
    return _finish(
        args,
        "kunz",
        {"ring": R.to_dsl(), "power": args.power, "N": args.homological_bound},
        rep.to_json(),
        "\n".join(lines),
        started,
        inconclusive,
    )


def _cmd_ghost_trivial(args, started):
    R = _ring(args)
    rep = ghost.ghost_trivialization_check(R, args.power, args.homological_bound)
    lines = [
        f"{R.to_dsl()}, Frobenius power {args.power}",
        f"stage bound satisfied (2^e > embdim): {rep.stages_bound_satisfied}",
        f"lhs (Tor against twisted Koszul): {rep.lhs_totals}",
        f"rhs (Betti * Koszul homology):    {rep.rhs_totals}",
        f"match: {str(rep.matches).lower()}",
    ]
    inconclusive = "tor-classes-at-degree-bound" in rep.flags
    return _finish(
        args,
        "ghost-trivial",
        {"ring": R.to_dsl(), "power": args.power, "N": args.homological_bound},
        rep.to_json(),
        "\n".join(lines),
        started,
        inconclusive,
    )


def _cmd_corpus(args, started):
    summary = corpus.corpus_verify(args.path)
    exit_code = EXIT_OK if summary["failures"] == 0 else EXIT_USAGE
    report = {
        "command": "corpus",
        "inputs": {"path": args.path or "<bundled>"},
        "results": summary,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(summary["text"])
    return exit_code, report


_COMMANDS = {
    "classify": _cmd_classify,
    "ghost": _cmd_ghost,
    "aq": _cmd_aq,
    "koszul": _cmd_koszul,
    "betti": _cmd_betti,
    "tor": _cmd_tor,
    "kunz": _cmd_kunz,
    "ghost-trivial": _cmd_ghost_trivial,
    "corpus": _cmd_corpus,
}


def run(argv):
    """Run one invocation; returns (exit_code, report dict or None)."""
    started = time.time()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, started)
    except SystemExit as exc:  # --help / --version
        return (exc.code if isinstance(exc.code, int) else EXIT_OK), None
    except (DSLError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, None
    except PreconditionError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION, None
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, None


def main():
    sys.exit(run(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
