"""Command-line front end.

Subcommands: analyze (full report), dims (dimension summary), verify
(cross-check ledger), examples (the six worked fixtures).  Exit codes:
0 success, 2 a hypothesis or cross-check failed (the output names it),
1 usage or IO errors.

For a built group, what analyze, dims and verify print, but the seed,
and verify's exit code are kept with the shared representation, per
command, embedding and rank policy, so a later call prints them without
analyzing again; a --rep file is read and analyzed on every call.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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
from .reps import BuildError, RepError, build_representation

__all__ = ["main"]

_HELP = """\
usage: charvar {analyze,dims,verify,examples} [SIGNATURE] [--rep FILE]
               [--embed {standard,orientable,type-preserving}] [--tol T] [--json] [--seed N]

character-variety local models for 2-orbifold groups

commands:
  analyze     full analysis of one group
  dims        dimension summary only
  verify      run every cross-check
  examples    run the worked fixtures (no SIGNATURE, --rep or --embed)

arguments:
  SIGNATURE   group signature: S2(3,3,4), O(g=2;b=1;cone=[3]), N(k=1;b=1),
              D(3,3;mirror), D2(3,3) or HD(3)
  --rep FILE  representation file, which fixes the rank (default: built-in)
  --embed {standard,orientable,type-preserving}
              embedding into the ambient group; required for non-orientable input
  --tol T     relative rank tolerance, in (0, 1) (default 1e-9)
  --json      machine-readable output
  --seed N    echoed in JSON; no step reads it (default 0)
  -h, --help  show this help and exit

Options may come before or after SIGNATURE, as --name VALUE or --name=VALUE;
a unique prefix (--emb) names its option."""
_USAGE = _HELP.partition("\n\n")[0]
_COMMANDS = ("analyze", "dims", "verify", "examples")


class _UsageError(Exception):
    """A malformed command line: main prints the usage and exits 1."""


def _tolerance(text: str) -> float:
    value = float(text)
    # 0 would keep rounding noise as rank and 1 drop every direction; nan fails the test too
    if not 0.0 < value < 1.0:
        raise ValueError(text)
    return value


# option -> the converter of its value, which raises ValueError or KeyError on
# a value it refuses, and what that value is told; None for an option that
# takes no value
_EXAMPLES_OPTIONS = {"--tol": (_tolerance, "must be a number in (0, 1), got"), "--seed": (int, "invalid int value:"),
                     "--json": None, "-h": None, "--help": None}
_EMBEDDINGS = {e: e for e in ("standard", "orientable", "type-preserving")}
_OPTIONS = {"--rep": (str, ""), "--embed": (_EMBEDDINGS.__getitem__, "invalid choice:"), **_EXAMPLES_OPTIONS}


def _option(name: str, options) -> str | None:
    """The option `name` is, or the one it alone abbreviates."""
    if name in options:
        return name
    hits = [option for option in options if option.startswith(name)]
    return hits[0] if name.startswith("--") and len(hits) == 1 else None


def _parse(argv):
    """The command and its options as the attributes the commands read, or
    None for help; a malformed command line raises _UsageError."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    command, rest = argv[0], iter(argv[1:])
    if command not in _COMMANDS:
        if _option(command, ("-h", "--help")):
            return None
        raise _UsageError(f"argument command: invalid choice: {command!r}")
    takes_input = command != "examples"
    options = _OPTIONS if takes_input else _EXAMPLES_OPTIONS
    args = SimpleNamespace(command=command, signature=None, rep=None, embed=None, tol=1e-9, json=False, seed=0)
    extra = []
    for arg in rest:
        if not arg.startswith("-"):
            if takes_input and args.signature is None:
                args.signature = arg
            else:
                extra.append(arg)
            continue
        name, eq, value = arg.partition("=")
        name = name if name in options else _option(name, options)
        if name is None or (eq and options[name] is None):
            extra.append(arg)
        elif name == "--json":
            args.json = True
        elif options[name] is None:
            return None
        else:
            convert, refusal = options[name]
            value = value if eq else next(rest, None)
            if value is None:
                raise _UsageError(f"argument {name}: expected one argument")
            try:
                setattr(args, name[2:], convert(value))
            except (KeyError, ValueError):
                raise _UsageError(f"argument {name}: {refusal} {value!r}") from None
    if takes_input and args.signature is None:
        raise _UsageError("the following arguments are required: signature")
    if extra:
        raise _UsageError(f"unrecognized arguments: {' '.join(extra)}")
    return args


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


def _report_text(report: AnalysisReport, as_json: bool, dims_only: bool) -> tuple[str, ...]:
    """What analyze or dims prints for the report, split where its seed goes."""
    if as_json:
        data = report_to_json(report)
        if dims_only:
            data = {"schema": SCHEMA, "input": data["input"], "dims": data["dims"]}
        text = json.dumps(data, indent=2, sort_keys=True)
        # the one line two spaces deep that names the seed: no JSON string holds a raw newline
        head, mark, rest = text.partition('\n  "seed": ')
        return (head + mark, rest[len(str(report.request.seed)):]) if mark else (text,)
    lines = [
        f"input      {report.request.input_text}  {report.group['description']}",
        f"embedding  {report.embedding}  (SL_{report.n} -> SL_{report.n + 1})",
        f"dims       {_dims_line(report)}",
    ]
    if dims_only:
        return ("\n".join(lines),)
    if report.model is not None:
        lines.append(f"model      {report.model.display}  [{'smooth' if report.model.smooth else 'singular'}]")
        if report.model.flags:
            lines.append(f"flags      {'; '.join(report.model.flags)}")
    base = report.irreducibility["base"]
    lines.append(
        f"checks     residual base {report.residuals['base']:.2e}, embedded "
        f"{report.residuals['embedded']:.2e}; base algebra {base.algebra_dim}"
    )
    if report.obstruction and report.obstruction.get("c_n") is not None:
        lines.append(f"obstruction c_n ~ {report.obstruction['c_n']:.6f}")
    failed = [e for e in report.ledger if not e.passed]
    lines.append(f"ledger     {len(report.ledger)} checks, {len(failed)} failed")
    lines.extend("  " + e.line() for e in failed)
    return ("\n".join(lines),)


def _ledger_text(ledger, as_json: bool) -> tuple[int, tuple[str]]:
    """verify's exit code and what it prints for the ledger."""
    code = 0 if all(e.passed for e in ledger) else 2
    if as_json:
        return code, (json.dumps({"schema": SCHEMA, "ledger": ledger_to_json(ledger)}, indent=2, sort_keys=True),)
    failed = sum(1 for e in ledger if not e.passed)
    return code, ("\n".join([*(e.line() for e in ledger), f"{len(ledger)} checks, {failed} failed"]),)


def _print_kept(args, req, make) -> int:
    """Print what make() returns, an exit code and the output split where
    the seed goes, and return the code.  A built group's output depends on
    the command, the embedding and the rank policy but on no seed, so it is
    kept with the shared representation and a later call prints it without
    analyzing; a file is read and analyzed on every call, and a call that
    raises keeps nothing."""
    if req.rep_path is None:
        key = (args.command, req.embedding, req.policy, args.json)
        code, pieces = kept(build_representation(req.signature), key, make)
    else:
        code, pieces = make()
    print(str(req.seed).join(pieces))
    return code


def _cmd_analyze(args, dims_only: bool) -> int:
    req = _request(args)
    if dims_only and req.embedding is None and not req.signature.orientable:
        # dims prints d_oe and d_tp, and no model, under either embedding, so it picks one
        req = req.replace(embedding="orientable")
    return _print_kept(args, req, lambda: (0, _report_text(analyze(req), args.json, dims_only)))


def _cmd_verify(args) -> int:
    req = _request(args)
    return _print_kept(args, req, lambda: _ledger_text(verify_suite(req), args.json))


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
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
    except _UsageError as err:
        command = f" {argv[0]}" if argv and argv[0] in _COMMANDS else ""
        print(f"{_USAGE}\ncharvar{command}: error: {err}", file=sys.stderr)
        return 1
    if args is None:
        print(_HELP)
        return 0
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
