"""Command-line front end.

Exit codes: 0 computed, 1 parse/usage error (or a failing corpus
check), 2 precondition rejection, 3 truncation-inconclusive: the report
lists a truncation flag.  Every command prints one report, as
human-readable text or, with --json, as a JSON run report; identical
invocations produce identical JSON apart from the wall-time field.
Missing bounds are the defaults of ringkit.bounds.  One parser, built
by the first run, serves every run in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__, bounds, corpus, ghost, homalg, koszul, simplicial
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
_positive = _int_at_least(1)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The parser, built on the first run and reused by every later one."""
    p = _ArgumentParser(prog="ringkit", description=__doc__)
    p.add_argument("--version", action="version", version=f"ringkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, levels=False, degree=False, homological=None):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument(
            "--order",
            choices=["degrevlex", "deglex"],
            default="degrevlex",
            help="monomial order",
        )
        if levels:
            sp.add_argument(
                "--levels", type=_int_at_least(2), default=bounds.AQ_LEVELS, metavar="L"
            )
        if degree:
            sp.add_argument(
                "--degree-bound", type=_non_negative, default=None, metavar="D"
            )
        if homological is not None:
            sp.add_argument(
                "--homological-bound", type=_non_negative, default=homological, metavar="N"
            )

    sp = sub.add_parser("classify", help="regular / complete intersection / other")
    sp.add_argument("ring")
    add_common(sp)

    sp = sub.add_parser("ghost", help="ghost analysis of a self-map")
    sp.add_argument("ring")
    sp.add_argument("--map", required=True, dest="map_text")
    sp.add_argument("--jmax", type=_positive, default=None)
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
    add_common(sp, degree=True, homological=bounds.HOMOLOGICAL)

    sp = sub.add_parser("tor", help="Tor of k against k or a Frobenius pushforward")
    sp.add_argument("ring")
    sp.add_argument("--with", dest="coefficients", choices=["k", "frobenius"], default="k")
    sp.add_argument("--power", type=_positive, default=1)
    add_common(sp, degree=True, homological=bounds.HOMOLOGICAL)

    sp = sub.add_parser("kunz", help="regularity vs Frobenius Tor-vanishing")
    sp.add_argument("ring")
    sp.add_argument("--power", type=_positive, default=1)
    add_common(sp, homological=bounds.FROBENIUS_HOMOLOGICAL)

    sp = sub.add_parser(
        "ghost-trivial", help="twisted-Koszul Tor vs Betti convolution"
    )
    sp.add_argument("ring")
    sp.add_argument("--power", type=_positive, default=1)
    add_common(sp, homological=bounds.FROBENIUS_HOMOLOGICAL)

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


def _cmd_classify(args):
    R = _ring(args)
    rep = ghost.classify(R)
    text = (
        f"{R.to_dsl()}: {rep.verdict}\n"
        f"embdim={rep.embdim} dim={rep.dim} minimal generators={rep.num_min_gens}"
    )
    return {"ring": R.to_dsl()}, rep.to_json(), text, []


def _cmd_ghost(args):
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
    inputs = {"ring": R.to_dsl(), "map": rep.map}
    return inputs, rep.to_json(), "\n".join(lines), []


def _cmd_aq(args):
    R = _ring(args)
    res = simplicial.aq_dims(R, args.levels, args.degree_bound)
    D = res.degree_bound
    text = (
        f"{R.to_dsl()}: AQ dims {tuple(res.dims)} "
        f"(degrees 0..{args.levels - 2}, L={args.levels}, D={D})"
    )
    inputs = {"ring": R.to_dsl(), "levels": args.levels, "degree_bound": D}
    return inputs, res.to_json(), text, res.flags


def _cmd_koszul(args):
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
    inputs = {"ring": R.to_dsl(), "sequence": [str(f) for f in seq]}
    return inputs, results, "\n".join(lines), table.warnings


def _cmd_betti(args):
    R = _ring(args)
    M = homalg.residue_field_module(R)
    table = homalg.minimal_resolution(M, args.homological_bound, args.degree_bound).betti
    homalg.flag_below_tate_bound(R, table)
    text = (
        f"Betti table of k over {R.to_dsl()} "
        f"(N={table.homological_bound}, D={table.degree_bound})\n" + table.to_text()
    )
    inputs = {"ring": R.to_dsl(), "N": args.homological_bound, "D": table.degree_bound}
    return inputs, table.to_json(), text, table.flags


def _cmd_tor(args):
    R = _ring(args)
    k_mod = homalg.residue_field_module(R)
    if args.coefficients == "k":
        N = k_mod
        desc = "k"
    else:
        N = ghost.frobenius_pushforward(R, args.power)
        desc = f"frobenius pushforward (e={args.power})"
    table = homalg.tor_dims(k_mod, N, args.homological_bound, args.degree_bound)
    if args.coefficients == "k":
        homalg.flag_below_tate_bound(R, table)
    text = f"Tor(k, {desc}) over {R.to_dsl()}\ntotals: {table.totals()}"
    inputs = {"ring": R.to_dsl(), "with": desc, "N": args.homological_bound}
    return inputs, table.to_json(), text, table.flags


def _cmd_kunz(args):
    R = _ring(args)
    rep = ghost.kunz_report(R, args.power, args.homological_bound)
    lines = [
        f"{R.to_dsl()}: {rep.classification.verdict}",
        f"pushforward rank {rep.pushforward_rank}, "
        f"Frobenius conormal zero: {rep.frobenius_conormal_zero}",
        f"Tor totals through {args.homological_bound}: {rep.tor.totals()}",
        f"consistent-with-Kunz: {str(rep.consistent).lower()}",
    ]
    inputs = {"ring": R.to_dsl(), "power": args.power, "N": args.homological_bound}
    return inputs, rep.to_json(), "\n".join(lines), rep.tor.flags


def _cmd_ghost_trivial(args):
    R = _ring(args)
    rep = ghost.ghost_trivialization_check(R, args.power, args.homological_bound)
    lines = [
        f"{R.to_dsl()}, Frobenius power {args.power}",
        f"stage bound satisfied (2^e > embdim): {rep.stages_bound_satisfied}",
        f"lhs (Tor against twisted Koszul): {rep.lhs_totals}",
        f"rhs (Betti * Koszul homology):    {rep.rhs_totals}",
        f"match: {str(rep.matches).lower()}",
    ]
    inputs = {"ring": R.to_dsl(), "power": args.power, "N": args.homological_bound}
    return inputs, rep.to_json(), "\n".join(lines), rep.flags


def _cmd_corpus(args):
    summary = corpus.corpus_verify(args.path)
    return {"path": args.path or "<bundled>"}, summary, summary["text"], []


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
    try:
        args = _build_parser().parse_args(argv)
        inputs, results, text, flags = _COMMANDS[args.command](args)
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
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    }
    print(json.dumps(report, sort_keys=True) if args.json else text)
    if args.command == "corpus" and results["failures"]:
        return EXIT_USAGE, report
    return (EXIT_TRUNCATION if flags else EXIT_OK), report


def main():
    sys.exit(run(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
