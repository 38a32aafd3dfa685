"""Golden corpus of command-line invocations: exit code, stdout digest and numbers of each.

    PYTHONPATH=<tree>/src python tools/cli_corpus.py > corpus.json
    PYTHONPATH=src python tools/cli_corpus.py --compare old.json new.json

Runs a fixed list of invocations in this process through
invgamma_benford.cli.main and prints one JSON object, one entry per
line, that maps each argv, joined by spaces, to [exit code, sha256 of
stdout, numbers of stdout].  The numbers are those of the JSON metadata
and payload, or of the CSV rows below the header, in order.  Stderr is
discarded.  Run it on two trees and diff the outputs: identical files
mean identical stdout bytes and exit codes on every invocation.  Where
the bytes change on purpose, --compare names every invocation whose
stdout digest differs, reports those whose exit code or number count
differs, and prints the largest |difference| between the numbers of the
others.  A run takes about 1 s on a 2-core machine.
"""

import contextlib
import hashlib
import io
import json
import sys

from invgamma_benford import cli

POINTS = [("0.05", "1e-3"), ("1", "1"), ("2.7", "6.1"), ("50", "123"), ("300", "0.5"),
          ("0.01", "2e5")]


def _grid(base, alpha, beta, *extra):
    (a_lo, a_hi, a_n), (b_lo, b_hi, b_n) = alpha, beta
    return ["grid", "--alpha-min", a_lo, "--alpha-max", a_hi, "--alpha-steps", a_n,
            "--beta-min", b_lo, "--beta-max", b_hi, "--beta-steps", b_n,
            "--base", base, *extra]


def corpus():
    runs = []
    for base in ("3", "10", "16"):
        for fmt in ("json", "csv"):
            runs.append(_grid(base, ("0.05", "30", "7"), ("1e-5", "1e5", "9"), "--format", fmt))
            runs.append(_grid(base, ("0.1", "50", "5"), ("1", "9.99", "6"), "--summary",
                              "--epsilon", "1e-10", "--format", fmt))
    runs.append(_grid("2", ("0.01", "2", "5"), ("0.5", "3", "4"), "--epsilon", "1e-12"))
    runs.append(_grid("10", ("0.1", "50", "40"), ("1", "9.99", "40")))
    for alpha, beta in POINTS:
        point = ["--alpha", alpha, "--beta", beta]
        for eps in ("1e-3", "1e-8", "1e-12"):
            runs.append(["deviation", *point, "--epsilon", eps])
        runs.append(["deviation", *point, "--base", "36", "--format", "csv"])
    runs.append(["deviation", "--alpha", "2.7", "--beta", "6.1", "--grid-points", "101"])
    runs.append(["deviation", "--alpha", "2.7", "--beta", "6.1", "--grid-points", "4001",
                 "--format", "csv"])
    runs.append(["cdf", "--alpha", "0.7", "--beta", "2.5", "--points", "57",
                 "--epsilon", "1e-9"])
    runs.append(["cdf", "--alpha", "4", "--beta", "1.2", "--base", "7", "--points", "33",
                 "--epsilon", "1e-9", "--format", "json"])
    for seed in ("1", "7"):
        runs.append(["verify", "--alpha", "0.5", "--beta", "2", "--samples", "20000",
                     "--seed", seed])
    runs.append(["verify", "--alpha", "5", "--beta", "3.3", "--base", "16", "--format", "csv"])
    runs.append(["verify", "--alpha", "1e-4", "--beta", "1"])
    runs.append(["verify", "--alpha", "0.05", "--beta", "1e300"])
    runs.append(["sample", "--alpha", "2", "--beta", "3", "--n", "2000", "--seed", "3"])
    runs.append(["sample", "--alpha", "2", "--beta", "3", "--n", "200", "--seed", "3",
                 "--format", "json"])
    runs.append(_grid("10", ("2", "1", "3"), ("1", "2", "3")))
    # scales at the ends of the double range, where beta is scaled into [1, B)
    for beta, base in (("5e-324", "10"), ("1.7976931348623157e308", "10"),
                       ("9.999999999999999e-293", "10"), ("1e-291", "1000")):
        runs.append(["deviation", "--alpha", "2.7", "--beta", beta, "--base", base])
    runs.append(["cdf", "--alpha", "2.7", "--beta", "1e-300", "--base", "3", "--points", "33"])
    runs.append(["verify", "--alpha", "2.7", "--beta", "3e-310", "--base", "3"])
    runs.append(_grid("7", ("0.5", "20", "3"), ("1e-300", "1e300", "7"), "--epsilon", "1e-12"))
    runs.append(_grid("36", ("0.5", "20", "3"), ("3e-321", "7e-310", "7"), "--epsilon", "1e-12"))
    runs.append(["deviation", "--alpha", "1", "--beta", "1", "--epsilon", "1"])
    for base in (str(2 ** 53), str(2 ** 53 + 1)):
        runs.append(["deviation", "--alpha", "2", "--beta", "3", "--base", base])
    runs.append(["verify", "--alpha", "2", "--beta", "3", "--base", "1" + "0" * 400])
    runs.append(["sample", "--alpha", "2", "--beta", "3", "--base", "1" + "0" * 400])
    return runs


def _flatten(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _flatten(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield float(node)


def _csv_number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def numbers(stdout: str) -> list:
    """The numbers of one stdout: its JSON metadata's and payload's, or its CSV rows'."""
    try:
        envelope = json.loads(stdout)
        return list(_flatten([envelope["metadata"], envelope["payload"]]))
    except (ValueError, KeyError, TypeError):
        cells = (_csv_number(c) for line in stdout.splitlines()[1:] for c in line.split(","))
        return [x for x in cells if x is not None]


def compare(old_path, new_path) -> None:
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    worst, where = 0.0, None
    for argv in sorted(old.keys() & new.keys()):
        (code_a, digest_a, xs), (code_b, digest_b, ys) = old[argv], new[argv]
        if digest_a != digest_b:
            print(f"stdout differs: {argv}")
        if code_a != code_b or len(xs) != len(ys):
            print(f"differs: {argv}: exit {code_a} -> {code_b}, {len(xs)} -> {len(ys)} numbers")
            continue
        gap = max((abs(x - y) for x, y in zip(xs, ys) if x != y), default=0.0)
        if gap > worst:
            worst, where = gap, argv
    for argv in sorted(old.keys() ^ new.keys()):
        print(f"in one corpus only: {argv}")
    print(f"largest |difference|: {worst!r} ({where})")


def main():
    if sys.argv[1:2] == ["--compare"]:
        compare(*sys.argv[2:4])
        return
    entries = []
    for argv in corpus():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:  # the command would end in a traceback, exit 1
                code = 1
        text = out.getvalue()
        value = [code, hashlib.sha256(text.encode()).hexdigest(), numbers(text)]
        entries.append(f" {json.dumps(' '.join(argv))}: {json.dumps(value)}")
    sys.stdout.write("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    main()
