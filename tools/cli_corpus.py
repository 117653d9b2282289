"""Run a fixed CLI corpus against two source trees and print where they differ.

    python tools/cli_corpus.py OLD/src NEW/src

Each tree runs in its own process and calls cuspdyn.cli.main for every
invocation: the README examples at every level, exact and approx code,
plain and traced, one- and two-sided (inf among the backward endpoints
of two-sided code and of return), traced code at step caps 1 to 12,
cf (also on sqrt 2, 13 and 41, on values whose digit period starts at
the preperiod or at the next run start, the preperiod ending inside a
run or starting a run of the last run's letter, and on 100001 at a step
cap below and at its run length), transfer cases, transfer on one valid and eleven
malformed --phi file: densities (among them a boolean node, a boolean
value and a repeated node), next and traced previous return cases,
code and return on a ratio of consecutive 627-digit Fibonacci numbers,
spectrum at 4, 5, 8, 16 and 32 nodes at three betas and at 64 nodes at
beta 1, --p given with --modular, the branch tables at p = 211 and 1009,
at p = 211 traced code on the three run-heavy values and one two-sided
code, modular code to 50,000 letters on the three longest periods of the
coding benchmark (the first also under cf, to 24 and to 2,100 digits),
code at p = 5 on a 1,312-letter period, and code at every level and cf
at 1,000 and 20,000 steps on a surd whose radicand 999999999989 is near
the grammar's bound and on a surd of negative b whose form needs its
discriminant scaled, and at every level two-sided code and next and
traced previous return on a rational backward endpoint that one branch
element maps to inf and on a backward surd of negative b whose form
needs scaling, two-sided code to 200 past letters on that surd pair and
on an approx backward endpoint, two-sided code at p = 1009,
conjugacy-check at every level at two seeds with 40 samples, and next and
traced previous return at p = 211 and 1009 on (phi, -sqrt 5), under four
values of CUSPDYN_APPROX_ERR.  Invocations
whose stdout, stderr, exit code or SVG differ are printed grouped by
subcommand, input kind and outcome; an uncaught exception counts as the
exit code "uncaught <type>".  The script exits 1 when any invocation
differs and 0 when none does.
"""

import contextlib, io, json, os, pathlib, re, subprocess, sys, tempfile
from collections import defaultdict

LEVELS = [["--modular"]] + [["--p", p] for p in ("2", "3", "5", "13")]
ERRS = ("1e-12", "1e-6", "1e-3", "0")
XS = ["rat:7/3", "rat:-5/7", "rat:1000001/2", "surd:(1+1*sqrt(5))/2", "surd:(-1+1*sqrt(2))/1",
      "surd:(3+2*sqrt(7))/5", "surd:(1+1*sqrt(2))/7", "inf", "approx:0.3", "approx:0.6", "approx:1e-5",
      "approx:2.1113077514094725", "approx:-2.420509706659658", "approx:2.20747578431883"]
YS = ["surd:(0+-1*sqrt(2))/1", "rat:-1/3", "surd:(1+1*sqrt(2))/3", "approx:-0.5", "approx:-3.7", "inf"]
# odd digit periods, then the digit period's start among the runs: at the preperiod,
# which starts a run (2 + sqrt 5), or at the next run start, the preperiod ending
# inside a run (2 + sqrt 3, 2 + sqrt 2) or starting a run of the last run's letter
# ((2 + sqrt 2)/2, and at preperiod 0 sqrt 2, 13 and 41)
CF_XS = ["surd:(0+1*sqrt(2))/1", "surd:(0+1*sqrt(13))/1", "surd:(0+1*sqrt(41))/1", "surd:(2+1*sqrt(5))/1",
         "surd:(2+1*sqrt(3))/1", "surd:(2+1*sqrt(2))/1", "surd:(2+1*sqrt(2))/2"]
TRACED = ["surd:(0+1*sqrt(101))/1", "surd:(1+-1*sqrt(101))/100", "approx:10.04987562112089"]  # runs of p, 0, -1
# a radicand near the bound, and b < 0 with 3 not dividing b^2 d - a^2 = 2 - 25
FORMS = ["surd:(1+1*sqrt(999999999989))/1000003", "surd:(5+-1*sqrt(2))/3"]
# x and y per level q: y = -(q+1)/q steps to -1/q, the pole of branch 0's element,
# and a backward surd of negative b whose form is scaled by 3
PAST_PAIRS = [("surd:(1+1*sqrt(5))/2", "rat:-{}/{}"), ("surd:(-1+1*sqrt(2))/1", "surd:(-5+-1*sqrt(2))/3")]
# 200 past letters on the surd pair, and on an approx y, on the section over phi at every level
LONG_PAST = [PAST_PAIRS[1], ("surd:(1+1*sqrt(5))/2", "approx:-0.7071067811865476")]
HEAVY = ["surd:(564+147*sqrt(10))/25", "surd:(865+98*sqrt(2))/32", "surd:(479+-147*sqrt(7))/38"]  # periods of 10,659-47,360 letters
PHI_FILES = {  # written to the working directory of each run
    "phi-ok.json": '{"nodes": [0, 1, 2, 4], "values": [1, 0.5, 0.25, 0.5]}',
    "phi-empty.json": "{}",
    "phi-list.json": "[1, 2]",
    "phi-string.json": '"x"',
    "phi-dict-nodes.json": '{"nodes": {"a": 1}, "values": [1, 2]}',
    "phi-inf-node.json": '{"nodes": [1e400, 2], "values": [1, 2]}',
    "phi-inf-value.json": '{"nodes": [1, 2], "values": [1, 1e400]}',
    "phi-null-value.json": '{"nodes": [1, 2], "values": [1, null]}',
    "phi-string-nodes.json": '{"nodes": ["0", "2"], "values": [1, 3]}',
    "phi-bool-node.json": '{"nodes": [true, 2], "values": [1, 2]}',
    "phi-bool-value.json": '{"nodes": [0, 1], "values": [false, 2]}',
    "phi-repeated-node.json": '{"nodes": [0, 0, 1], "values": [1, 5, 2]}',
}
FIB = [0, 1]
while len(FIB) < 3001:
    FIB.append(FIB[-2] + FIB[-1])
FIBS = [f"rat:{FIB[-2]}/{FIB[-1]}", f"rat:{FIB[-1]}/{FIB[-2]}"]


def corpus(readme):
    for ex in re.findall(r"^cuspdyn (.*?)(?:\s+#.*)?$", readme, re.M):
        args = [a.strip('"') for a in ex.split()]
        drop = {j for i, a in enumerate(args) for j in {"--modular": (i,), "--p": (i, i + 1)}.get(a, ())}
        rest = [a for i, a in enumerate(args) if i not in drop]
        yield from (rest[:1] + level + rest[1:] for level in (LEVELS if drop else [[]]))
    for level in LEVELS:
        for x in XS:
            yield from (["code", *level, "--x", x, "--steps", "80"], ["code", *level, "--x", x, "--trace"])
            for y in YS:
                yield from (["code", *level, "--x", x, "--y", y, "--steps", "20", "--past", "20", *trace]
                            for trace in ([], ["--trace"]))
                yield from (["return", *level, "--x", x, "--y", y, *prev] for prev in ([], ["--previous", "--trace"]))
            for beta, phi in (("1", "one"), ("2", "invx"), ("0.5", "one"), ("300", "invx")):
                yield ["transfer", *level, "--beta", beta, "--phi", phi, "--x", x]
        for name in PHI_FILES:
            yield from (["transfer", *level, "--phi", f"file:{name}", "--x", x]
                        for x in ("rat:1/2", "surd:(0+1*sqrt(2))/1"))
        for x in TRACED:
            yield from (["code", *level, "--x", x, "--steps", str(n), "--trace"] for n in range(1, 13))
        for nodes in ("4", "5", "8", "16", "32"):
            yield from (["spectrum", *level, "--nodes", nodes, "--beta", beta] for beta in ("1", "1.5", "0.5"))
        yield ["spectrum", *level, "--nodes", "64", "--beta", "1"]
    yield from (["cf", "--x", x, "--digits", "12"] for x in XS + CF_XS)
    yield from (["cf", "--x", "rat:100001/1", "--steps", n] for n in ("4000", "100001"))
    yield ["branches", "--p", "5", "--modular"]
    yield from (["branches", "--p", p] for p in ("211", "1009"))  # run letters and elements beyond the test levels
    yield from (["code", "--p", "211", "--x", x, "--steps", "80", "--trace"] for x in TRACED)
    yield ["code", "--p", "211", "--x", TRACED[0], "--y", YS[0], "--steps", "20", "--past", "20"]
    yield from (["code", "--modular", "--x", x, "--steps", "50000"] for x in HEAVY)
    yield from (["cf", "--x", HEAVY[0], "--steps", "50000", "--digits", n] for n in ("24", "2100"))
    yield ["code", "--p", "5", "--x", "surd:(157+4*sqrt(26))/200", "--steps", "2000"]
    for x in FORMS:
        for n in ("1000", "20000"):
            yield from (["code", *level, "--x", x, "--steps", n] for level in LEVELS)
            yield ["cf", "--x", x, "--steps", n]
    for level in LEVELS:
        q = int(level[-1]) if level[0] == "--p" else 1
        for x, y in PAST_PAIRS:
            y = y.format(q + 1, q)
            yield ["code", *level, "--x", x, "--y", y, "--steps", "20", "--past", "20"]
            yield from (["return", *level, "--x", x, "--y", y, *prev] for prev in ([], ["--previous", "--trace"]))
        yield from (["code", *level, "--x", x, "--y", y, "--steps", "20", "--past", "200"] for x, y in LONG_PAST)
    yield ["code", "--p", "1009", "--x", TRACED[0], "--y", YS[0], "--steps", "20", "--past", "20"]
    for level in LEVELS:
        yield from (["conjugacy-check", *level, "--samples", "40", "--seed", seed] for seed in ("1", "2"))
    for p in ("211", "1009"):
        yield from (["return", "--p", p, "--x", "surd:(1+1*sqrt(5))/2", "--y", "surd:(0+-1*sqrt(5))/1", *prev]
                    for prev in ([], ["--previous", "--trace"]))
    for level in (["--p", "5"], ["--modular"]):
        for x in FIBS:
            yield from (["code", *level, "--x", x], ["code", *level, "--x", x, "--trace"])
            yield from (["return", *level, "--x", x, "--y", y] for y in YS)
            yield from (["return", *level, "--x", "surd:(1+1*sqrt(5))/2", "--y", x, *prev] for prev in ([], ["--previous"]))


def run(readme):
    from cuspdyn.cli import main

    results, tmp = [], tempfile.TemporaryDirectory()
    svg = pathlib.Path(tmp.name, "out.svg")
    os.chdir(tmp.name)
    for name, text in PHI_FILES.items():
        pathlib.Path(name).write_text(text)
    for err in ERRS:
        os.environ["CUSPDYN_APPROX_ERR"] = err
        for argv in corpus(readme):
            out, errs = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errs):
                try:
                    code = main([str(svg) if a.endswith(".svg") else a for a in argv])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:
                    code = f"uncaught {type(exc).__name__}"
            picture = svg.read_text() if svg.exists() else None
            svg.unlink(missing_ok=True)
            results.append([err, argv, code, out.getvalue(), errs.getvalue(), picture])
    return results


def main():
    if sys.argv[1] == "--run":
        return print(json.dumps(run(open(sys.argv[2]).read())))
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    old, new = (json.loads(subprocess.run([sys.executable, __file__, "--run", readme], check=True, text=True,
                                          capture_output=True,
                                          env={**os.environ, "PYTHONPATH": os.path.abspath(src)}).stdout)
                for src in sys.argv[1:3])
    groups = defaultdict(list)
    for a, b in zip(old, new):
        if a != b:
            kind = "approx" if any(v.startswith("approx:") for v in a[1]) else "exact"
            parts = "+".join(n for n, i in (("stdout", 3), ("stderr", 4), ("svg", 5)) if a[i] != b[i])
            groups[(a[1][0], kind, f"exit {a[2]} -> {b[2]}", parts)].append(a[:2])
    print(f"{len(old)} invocations, {sum(map(len, groups.values()))} differ")
    for key, cases in sorted(groups.items()):
        print(f"\n{' | '.join(key)}: {len(cases)}")
        print("\n".join(f"  CUSPDYN_APPROX_ERR={err} cuspdyn {' '.join(argv)}" for err, argv in cases[:4]))
    return 1 if groups else 0


if __name__ == "__main__":
    sys.exit(main())
