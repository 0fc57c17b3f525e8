"""Command-line front end.

Subcommands: `check` validates a circuit against an input, `eval`
computes the exact output pmf, `sample` draws seeded detection shots,
and `optimize` / `optimize-structure` train circuit parameters (and
optionally placements) toward target pmfs.

Exit codes: 0 success, 1 usage or document error, 2 static-semantics
violation, 3 resource limit (output basis or permanent too large), 4
numeric failure (non-finite loss).  All randomness flows from --seed;
when omitted the fixed default 1234 is used, never entropy.
"""

import argparse
import sys
from pathlib import Path

from . import dslio
from .circuit import StaticSemanticsError, check_static
from .engine import PermanentSizeError, pmf_mass, prob_fn
from .fock import EnumerationCapError
from .optimizer import (OBJECTIVES, NonFiniteObjectiveError, OptProblem,
                        OptResult, opt_config, opt_structure)
from .sampler import sample

DEFAULT_SEED = 1234

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTICS = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4

REPORT_STATES = 10


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise dslio.DocumentError(f"cannot read {path}: {exc.strerror}") from None


def _state_str(state) -> str:
    return "[" + ",".join(str(n) for n in state) + "]"


def _print_pmf_report(pmf) -> None:
    entries = dslio.pmf_entries(pmf)
    for state, p in entries[:REPORT_STATES]:
        print(f"P{_state_str(state)} = {p:.12g}")
    if len(entries) > REPORT_STATES:
        print(f"... ({len(entries) - REPORT_STATES} more states)")
    print(f"retained mass = {pmf_mass(pmf):.12g} over {len(entries)} states")


def cmd_check(args) -> int:
    circuit = dslio.parse_circuit(_read(args.circuit))
    input_state = dslio.parse_input(_read(args.input))
    diagnostics = check_static(circuit, input_state)
    if diagnostics.ok:
        print("OK")
        return EXIT_OK
    for violation in diagnostics.violations:
        print(str(violation))
    return EXIT_SEMANTICS


def _evaluate(args):
    circuit = dslio.parse_circuit(_read(args.circuit))
    input_state = dslio.parse_input(_read(args.input))
    return prob_fn(circuit, input_state, threshold=args.threshold)


def cmd_eval(args) -> int:
    pmf = _evaluate(args)
    _print_pmf_report(pmf)
    if args.out:
        Path(args.out).write_text(dslio.serialize_pmf(pmf), encoding="utf-8")
    return EXIT_OK


def cmd_sample(args) -> int:
    pmf = _evaluate(args)
    record = sample(pmf, args.shots, args.seed)
    text = dslio.serialize_shots(record.shots)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _report_result(result: OptResult, args) -> int:
    print(f"final loss = {result.final_loss:.12g} "
          f"after {len(result.loss_history)} iteration(s)")
    if args.out:
        Path(args.out).write_text(dslio.serialize_circuit(result.config),
                                  encoding="utf-8")
    if args.trace:
        lines = ["iteration,loss"]
        lines += [f"{i},{loss:.17g}" for i, loss in enumerate(result.loss_history)]
        Path(args.trace).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_optimize(args) -> int:
    template = dslio.parse_circuit(_read(args.circuit))
    pairs = dslio.parse_pairs(_read(args.pairs))
    problem = OptProblem(circuit_template=template, pairs=tuple(pairs),
                         n_train=args.iters, step_size=args.step,
                         seed=args.seed, objective=args.objective)
    return _report_result(opt_config(problem), args)


def cmd_optimize_structure(args) -> int:
    pairs = dslio.parse_pairs(_read(args.pairs))
    result = opt_structure(args.modes, args.max_gates, pairs,
                           n_restarts=args.restarts, seed=args.seed,
                           n_train=args.iters, step_size=args.step,
                           objective=args.objective)
    return _report_result(result, args)


def _add_opt_flags(parser) -> None:
    parser.add_argument("--iters", type=int, default=OptProblem.n_train,
                        help="training iterations (default %(default)s)")
    parser.add_argument("--step", type=float, default=OptProblem.step_size,
                        help="gradient-descent step size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"PRNG seed (default {DEFAULT_SEED})")
    parser.add_argument("--objective", choices=tuple(OBJECTIVES),
                        default=OptProblem.objective,
                        help="pmf distance to minimise (default %(default)s)")
    parser.add_argument("--out", help="write the learned circuit document here")
    parser.add_argument("--trace", help="write an iteration,loss CSV here")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a semantics violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boskit",
        description="Interferometer circuit DSL: validate, evaluate, "
                    "sample, and optimize.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a circuit against an input")
    p.add_argument("circuit")
    p.add_argument("input")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("eval", help="compute the exact output pmf")
    p.add_argument("circuit")
    p.add_argument("input")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="drop output states below this probability")
    p.add_argument("--out", help="write a pmf document here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sample", help="draw detection shots from the pmf")
    p.add_argument("circuit")
    p.add_argument("input")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"PRNG seed (default {DEFAULT_SEED})")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="drop output states below this probability")
    p.add_argument("--out", help="write a shots file here")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("optimize",
                       help="learn gate parameters matching target pmfs")
    p.add_argument("circuit", help="circuit template document")
    p.add_argument("pairs", help="JSON array of {input, target} pairs")
    _add_opt_flags(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("optimize-structure",
                       help="search gate counts and placements as well")
    p.add_argument("pairs", help="JSON array of {input, target} pairs")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--max-gates", type=int, required=True)
    p.add_argument("--restarts", type=int, default=8)
    _add_opt_flags(p)
    p.set_defaults(fn=cmd_optimize_structure)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StaticSemanticsError as exc:
        for violation in exc.diagnostics.violations:
            print(str(violation), file=sys.stderr)
        return EXIT_SEMANTICS
    except (EnumerationCapError, PermanentSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NonFiniteObjectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
