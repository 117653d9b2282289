"""Command line surface: domain, branches, code, cf, return, conjugacy-check, transfer, spectrum.

Output is JSON on stdout (SVG to a file for `domain --svg`).  Identical
invocations produce byte-identical output: all sampling is driven by the
--seed argument and JSON keys are emitted in sorted order.  Exit status
0 on success, 1 when an internal check fails, 2 on argument errors and
when memory runs out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import dynamics, flow_oracle, sampling, svg, tessellation, transfer
from .exact import GREATER, Infinity, Rational, compare, emit_value, parse_value

# The most letters and states `code` prints, and digits `cf` prints.  At
# the bound the process peaks at about 0.45 GB of RSS for cf digits and
# 0.5 GB for code letters, most of it the indented JSON dump, and at 0.9 GB
# for traced code, half of whose items are states.
MAX_PRINTED = 5_000_000


def _dump(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _printable(count: int, what: str) -> None:
    """Refuse output of more than MAX_PRINTED items before it is spelled out."""
    if count > MAX_PRINTED:
        raise ValueError(f"the output would hold {count} {what}, more than the {MAX_PRINTED} printed at most")


def _count(args, name: str) -> int:
    """A count argument, which must not be negative."""
    n = getattr(args, name)
    if n < 0:
        raise ValueError(f"--{name} must be >= 0, got {n}")
    return n


def _approx_err() -> float:
    """The error bound of approx: inputs, from CUSPDYN_APPROX_ERR; finite and >= 0."""
    text = os.environ.get("CUSPDYN_APPROX_ERR", "1e-12")
    try:
        err = float(text)
    except ValueError:
        err = math.nan
    if not (math.isfinite(err) and err >= 0):
        raise ValueError(f"CUSPDYN_APPROX_ERR must be a finite number >= 0, got {text!r}")
    return err


def _value(args, name: str):
    """A boundary-value argument, with the approx error bound of this run."""
    return parse_value(getattr(args, name), args.approx_err)


def _beta(args) -> float:
    """--beta, which must be finite."""
    if not math.isfinite(args.beta):
        raise ValueError(f"--beta must be finite, got {args.beta}")
    return args.beta


def _level(args) -> int:
    """The level: 1 for --modular, else the prime --p; an argument error unless exactly one is given."""
    if args.p is None and not args.modular:
        raise ValueError("one of --p or --modular is required")
    if args.p is not None and args.modular:
        raise ValueError("--p and --modular exclude each other")
    return tessellation._level(args.p, args.modular)


def _table(args):
    p = _level(args)
    return dynamics.modular_table() if p == 1 else dynamics.branch_table(p)


def _add_group_args(sp):
    sp.add_argument("--p", type=int, default=None, help="prime level of the congruence group")
    sp.add_argument("--modular", action="store_true", help="use the modular-surface preset")


def cmd_domain(args) -> int:
    p = _level(args)
    dom = tessellation.modular_domain() if p == 1 else tessellation.build_domain(p)
    if args.svg:
        text = svg.render_domain_svg(dom, show=args.show)
        with open(args.svg, "w") as fh:
            fh.write(text)
    _dump(tessellation.domain_to_json(dom))
    return 0


def cmd_branches(args) -> int:
    _dump(_table(args).to_json())
    return 0


def cmd_code(args) -> int:
    table = _table(args)
    past = _count(args, "past")
    x = _value(args, "x")
    if args.y is not None:
        y = _value(args, "y")
        seq = dynamics.code_two_sided(table, x, y, args.steps, past)
    else:
        seq = dynamics.code_future(table, x, args.steps)
    letters = sum(n for _, n in seq.runs)
    _printable(letters + (letters - seq.origin + 1 if args.trace else 0), "letters and states")
    out = seq.to_json()
    if args.trace:
        states = [x]
        for label in seq.letters[seq.origin :]:
            states.append(table.branch(label).apply(states[-1]))
        out["states"] = [emit_value(s) for s in states]
    _dump(out)
    return 0


def cmd_cf(args) -> int:
    table = dynamics.modular_table()
    _count(args, "digits")
    x = _value(args, "x")
    if isinstance(x, Infinity) or compare(x, Rational(1)) != GREATER:
        raise ValueError(f"cf needs a finite x > 1, got {emit_value(x)}")
    seq = dynamics.code_future(table, x, args.steps)
    digits = dynamics.accelerate_to_cf(seq, max_digits=args.digits)
    _printable(args.digits if digits.period else len(digits.digits), "digits")
    out = digits.to_json()
    out["schema"] = 1
    out["x"] = emit_value(x)
    out["digits"] = digits.expand(args.digits) if digits.period else out["digits"]
    _dump(out)
    return 0


def cmd_return(args) -> int:
    table = _table(args)
    x = _value(args, "x")
    y = _value(args, "y")
    sp = flow_oracle.canonical_section_point(table, x, y)
    if args.previous:
        rec = flow_oracle.previous_exterior_geometric(sp, table)
        out = {"schema": 1, "previous": None} if rec is None else {**rec.to_json(), "previous": True}
    else:
        out = flow_oracle.first_return_geometric(sp, table).to_json()
    if args.trace:
        out["section_point"] = sp.to_json()
    _dump(out)
    return 0


def cmd_conjugacy_check(args) -> int:
    table = _table(args)
    report = sampling.conjugacy_check(table, args.samples, args.seed)
    _dump(report)
    return 0 if report["matches"] == report["samples"] else 1


def cmd_transfer(args) -> int:
    table = _table(args)
    phi = _parse_phi(args.phi)
    x = _value(args, "x")
    beta = _beta(args)
    # an integral beta >= 0 goes in as an int, so apply_transfer may evaluate exactly
    value = transfer.apply_transfer(table, int(beta) if beta.is_integer() and beta >= 0 else beta, phi, x)
    out = {"schema": 1, "beta": beta, "phi": args.phi, "x": emit_value(x)}
    if hasattr(value, "to_float"):
        out["value_exact"] = emit_value(value)
        try:
            out["value"] = value.to_float()
        except OverflowError:
            raise ValueError("the value's magnitude is beyond float range") from None
    else:
        out["value"] = value
    _dump(out)
    return 0


def cmd_spectrum(args) -> int:
    table = _table(args)
    op = transfer.collocation_matrix(table, _beta(args), args.nodes)
    vals = op.eigenvalues(args.top)
    _dump(
        {
            "schema": 1,
            "beta": args.beta,
            "nodes_per_interval": args.nodes,
            "eigenvalues": [
                {"re": round(z.real, 12), "im": round(z.imag, 12), "abs": round(abs(z), 12)}
                for z in vals
            ],
        }
    )
    return 0


def _parse_phi(name: str) -> transfer.DensityFunction:
    if name == "one":
        return transfer.DensityFunction.one()
    if name == "invx":
        return transfer.DensityFunction.reciprocal()
    if name.startswith("file:"):
        with open(name[5:]) as fh:
            data = json.load(fh)
        if not (isinstance(data, dict) and "nodes" in data and "values" in data):
            raise ValueError("a density file holds a JSON object with nodes and values")
        return transfer.DensityFunction.from_samples(data["nodes"], data["values"])
    raise ValueError(f"unknown density {name!r} (use one|invx|file:<samples.json>)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cuspdyn", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("domain", help="Ford domain data (JSON, optional SVG)")
    _add_group_args(sp)
    sp.add_argument("--svg", default=None, help="write an SVG picture to this path")
    sp.add_argument("--show", choices=("precells", "cells"), default="precells")
    sp.set_defaults(fn=cmd_domain)

    sp = sub.add_parser("branches", help="branch table dump")
    _add_group_args(sp)
    sp.set_defaults(fn=cmd_branches)

    sp = sub.add_parser("code", help="coding sequence of a boundary value")
    _add_group_args(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", default=None, help="backward endpoint for two-sided coding")
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--past", type=int, default=10)
    sp.add_argument("--trace", action="store_true", help="include the future orbit states")
    sp.set_defaults(fn=cmd_code)

    sp = sub.add_parser("cf", help="continued fraction digits via run-length acceleration")
    sp.add_argument("--x", required=True)
    sp.add_argument("--digits", type=int, default=24)
    sp.add_argument("--steps", type=int, default=4000)
    sp.set_defaults(fn=cmd_cf)

    sp = sub.add_parser("return", help="geometric first-return oracle record")
    _add_group_args(sp)
    sp.add_argument("--x", required=True, help="forward endpoint")
    sp.add_argument("--y", required=True, help="backward endpoint")
    sp.add_argument("--previous", action="store_true", help="previous exterior instead of next")
    sp.add_argument("--trace", action="store_true", help="include the canonical section point")
    sp.set_defaults(fn=cmd_return)

    sp = sub.add_parser("conjugacy-check", help="oracle vs generating map comparison")
    _add_group_args(sp)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_conjugacy_check)

    sp = sub.add_parser("transfer", help="evaluate the transfer operator at a point")
    _add_group_args(sp)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--phi", default="one")
    sp.add_argument("--x", required=True)
    sp.set_defaults(fn=cmd_transfer)

    sp = sub.add_parser("spectrum", help="collocation eigenvalues sorted by modulus")
    _add_group_args(sp)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--nodes", type=int, default=32)
    sp.add_argument("--top", type=int, default=None)
    sp.set_defaults(fn=cmd_spectrum)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args.approx_err = _approx_err()
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # the interpreter raises it without text
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2
    except AssertionError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
