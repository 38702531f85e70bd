"""Command-line front end.

Subcommands: analyze (full report), dims (dimension summary), verify
(cross-check ledger), examples (the six worked fixtures).  Exit codes:
0 success, 2 a hypothesis or cross-check failed (the output names it),
1 usage or IO errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from ._record import kept
from .classifier import ClassifierError
from .cohomology import CohomologyError
from .linalg import RankPolicy
from .pipeline import (
    SCHEMA,
    AnalysisReport,
    HypothesisError,
    PipelineError,
    analyze,
    example_requests,
    ledger_to_json,
    report_to_json,
    request_from_text,
    verify_suite,
)
from .presentation import PresentationError, SignatureError
from .reps import BuildError, RepError

__all__ = ["main", "build_parser"]

_SIG_HELP = (
    "group signature: S2(3,3,4), O(g=2;b=1;cone=[3]), N(k=1;b=1), "
    "D(3,3;mirror), D2(3,3) or HD(3)"
)


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for hypothesis failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _tolerance(text: str) -> float:
    value = float(text)
    # 0 would keep rounding noise as rank and 1 drop every direction; nan fails the test too
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return value


def _add_common(p, with_input: bool):
    if with_input:
        p.add_argument("signature", help=_SIG_HELP)
        p.add_argument(
            "--rep",
            metavar="FILE",
            help="representation file, which fixes the rank (default: built-in)",
        )
        p.add_argument(
            "--embed",
            choices=["standard", "orientable", "type-preserving"],
            default=None,
            help="embedding into the ambient group; required for non-orientable input",
        )
    p.add_argument(
        "--tol", type=_tolerance, default=1e-9, help="relative rank tolerance, in (0, 1)"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="echoed in JSON; no step reads it (default 0)",
    )


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="charvar", description="character-variety local models for 2-orbifold groups")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    _add_common(sub.add_parser("analyze", help="full analysis of one group"), True)
    _add_common(sub.add_parser("dims", help="dimension summary only"), True)
    _add_common(sub.add_parser("verify", help="run every cross-check"), True)
    _add_common(sub.add_parser("examples", help="run the worked fixtures"), False)
    return p


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one serves every main call
    return build_parser()


def _policy(args) -> RankPolicy:
    # at the default --tol this is RankPolicy() itself, so the CLI and the
    # library share the facts kept per policy
    return RankPolicy(args.tol, args.tol / 1000)


def _request(args):
    return request_from_text(
        args.signature,
        rep_path=args.rep,
        embedding=args.embed,
        policy=_policy(args),
        seed=args.seed,
    )


def _dims_line(report: AnalysisReport) -> str:
    d = report.dims
    if "d" in d:
        return f"p={d['p']} d={d['d']} b={d['b']}"
    return f"p={d['p']} b={d['b']} d_oe={d['d_oe']} d_tp={d['d_tp']} f={d['f']}"


def _json_entries(report: AnalysisReport, dims_only: bool, show_model: bool) -> tuple[str | None, ...]:
    """The report's top-level JSON entries in key order as json.dumps(data,
    indent=2, sort_keys=True) writes them: nested lines two spaces deeper
    (no JSON string holds a raw newline), and None for the seed."""
    data = report_to_json(report)
    if dims_only:
        data = {"schema": SCHEMA, "input": data["input"], "dims": data["dims"]}
    elif not show_model:
        data["model"] = None
    return tuple(
        None if key == "seed"
        else f"  {json.dumps(key)}: " + json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        for key, value in sorted(data.items())
    )


def _print_report(report: AnalysisReport, as_json: bool, dims_only: bool, show_model: bool = True):
    if as_json:
        # the table fixes the representation, the embedding and the policy
        req = report.request
        key = ("json", req.rep_path is None, req.checks, dims_only, show_model)
        entries = kept(report.cohomology, key, lambda: _json_entries(report, dims_only, show_model))
        print("{\n" + ",\n".join(f'  "seed": {req.seed}' if e is None else e for e in entries) + "\n}")
        return
    print(f"input      {report.request.input_text}  {report.group['description']}")
    print(f"embedding  {report.embedding}  (SL_{report.n} -> SL_{report.n + 1})")
    print(f"dims       {_dims_line(report)}")
    if dims_only:
        return
    if show_model and report.model is not None:
        print(f"model      {report.model.display}  [{'smooth' if report.model.smooth else 'singular'}]")
        if report.model.flags:
            print(f"flags      {'; '.join(report.model.flags)}")
    base = report.irreducibility["base"]
    print(
        f"checks     residual base {report.residuals['base']:.2e}, embedded "
        f"{report.residuals['embedded']:.2e}; base algebra {base.algebra_dim}"
    )
    if report.obstruction and report.obstruction.get("c_n") is not None:
        print(f"obstruction c_n ~ {report.obstruction['c_n']:.6f}")
    failed = [e for e in report.ledger if not e.passed]
    print(f"ledger     {len(report.ledger)} checks, {len(failed)} failed")
    for e in failed:
        print("  " + e.line())


def _cmd_analyze(args, dims_only: bool) -> int:
    req = _request(args)
    # dims reports d_oe and d_tp under either embedding, so it picks one
    show_model = not (dims_only and req.embedding is None and not req.signature.orientable)
    if not show_model:
        req = req.replace(embedding="orientable")
    report = analyze(req)
    _print_report(report, args.json, dims_only, show_model)
    return 0


def _cmd_verify(args) -> int:
    ledger = verify_suite(_request(args))
    if args.json:
        print(json.dumps({"schema": SCHEMA, "ledger": ledger_to_json(ledger)}, indent=2, sort_keys=True))
    else:
        for e in ledger:
            print(e.line())
        failed = sum(1 for e in ledger if not e.passed)
        print(f"{len(ledger)} checks, {failed} failed")
    return 0 if all(e.passed for e in ledger) else 2


def _cmd_examples(args) -> int:
    policy = _policy(args)
    reports = [analyze(req.replace(policy=policy)) for req in example_requests(args.seed)]
    if args.json:
        print(
            json.dumps(
                {"schema": SCHEMA, "examples": [report_to_json(r) for r in reports]},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    w = max(len("input"), *(len(r.request.input_text) for r in reports)) + 2
    header = f"{'input':<{w}}{'embedding':<18}{'p':>3}{'b':>3}  {'d':<12}model"
    print(header)
    print("-" * len(header))
    for r in reports:
        d = r.dims
        dtxt = str(d["d"]) if "d" in d else f"oe={d['d_oe']} tp={d['d_tp']}"
        model = r.model.display if r.model else "-"
        print(
            f"{r.request.input_text:<{w}}{r.embedding:<18}{d['p']:>3}{d['b']:>3}  {dtxt:<12}{model}"
        )
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args, dims_only=False)
        if args.command == "dims":
            return _cmd_analyze(args, dims_only=True)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_examples(args)
    except HypothesisError as err:
        print(f"hypothesis failure: {err}", file=sys.stderr)
        for e in err.ledger:
            print("  " + e.line(), file=sys.stderr)
        return 2
    except (
        PipelineError,
        BuildError,
        RepError,
        SignatureError,
        PresentationError,
        CohomologyError,
        ClassifierError,
        OSError,
        json.JSONDecodeError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
