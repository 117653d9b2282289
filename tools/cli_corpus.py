"""Run a fixed CLI corpus against two source trees and print where they differ.

    python tools/cli_corpus.py OLD/src NEW/src

Each tree runs in its own process and calls cuspdyn.cli.main for every
invocation: the README examples at every level, exact and approx code,
plain and traced, one- and two-sided, traced code at step caps 1 to 12,
cf (also on sqrt 2, 13 and 41, and on 100001 at a step cap below and at
its run length), transfer cases, transfer on one valid and eight
malformed --phi file: densities, next and traced previous return cases,
code and return on a ratio of consecutive 627-digit Fibonacci numbers,
spectrum at three node counts and three betas, and --p given with
--modular, under four values of CUSPDYN_APPROX_ERR.  Invocations whose
stdout, stderr, exit code or SVG differ are printed grouped by
subcommand, input kind and outcome; an uncaught exception counts as the
exit code "uncaught <type>".
"""

import contextlib, io, json, os, pathlib, re, subprocess, sys, tempfile
from collections import defaultdict

LEVELS = [["--modular"]] + [["--p", p] for p in ("2", "3", "5", "13")]
ERRS = ("1e-12", "1e-6", "1e-3", "0")
XS = ["rat:7/3", "rat:-5/7", "rat:1000001/2", "surd:(1+1*sqrt(5))/2", "surd:(-1+1*sqrt(2))/1",
      "surd:(3+2*sqrt(7))/5", "surd:(1+1*sqrt(2))/7", "inf", "approx:0.3", "approx:0.6", "approx:1e-5",
      "approx:2.1113077514094725", "approx:-2.420509706659658", "approx:2.20747578431883"]
YS = ["surd:(0+-1*sqrt(2))/1", "rat:-1/3", "surd:(1+1*sqrt(2))/3", "approx:-0.5", "approx:-3.7"]
CF_XS = ["surd:(0+1*sqrt(2))/1", "surd:(0+1*sqrt(13))/1", "surd:(0+1*sqrt(41))/1"]  # odd digit periods
TRACED = ["surd:(0+1*sqrt(101))/1", "surd:(1+-1*sqrt(101))/100", "approx:10.04987562112089"]  # runs of p, 0, -1
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
        for nodes in ("8", "16", "32"):
            yield from (["spectrum", *level, "--nodes", nodes, "--beta", beta] for beta in ("1", "1.5", "0.5"))
    yield from (["cf", "--x", x, "--digits", "12"] for x in XS + CF_XS)
    yield from (["cf", "--x", "rat:100001/1", "--steps", n] for n in ("4000", "100001"))
    yield ["branches", "--p", "5", "--modular"]
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


if __name__ == "__main__":
    main()
