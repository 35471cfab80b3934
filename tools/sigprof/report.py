#!/usr/bin/env python3
"""Turns a sigprof.<pid>.out sample file into a flat profile.

    python3 tools/sigprof/report.py sigprof.1234.out [--outside-std] [--top N]

Addresses in the main executable are resolved with `addr2line -f -i -C`
(build with debug info, e.g. RelWithDebInfo or Release plus -g, for inlined
frames). By default each sample is charged to its innermost function,
inlined ones included; with --outside-std it is charged to the innermost
frame that is not library code (from a system or compiler header, in
namespace std, or with a reserved __name), so container and algorithm
internals count against the code that called them. Samples in shared
libraries are charged to the dladdr symbol the sampler recorded.
"""

import argparse
import collections
import re
import subprocess
import sys

# Library frames: code from the compiler's or the system's headers, or any
# function in namespace std or with a reserved __name. addr2line reports
# inlined template frames unqualified (find_if, __adjust_heap), so the
# source file decides for those.
LIBRARY_PREFIXES = ("std::", "__")
LIBRARY_DIRS = ("/usr/include/", "/usr/lib/", "/usr/local/include/")


def is_library(frame):
    function, source = frame
    return function.startswith(LIBRARY_PREFIXES) or source.startswith(LIBRARY_DIRS)


# What may follow a demangled name's parameter list, in any order: cv- and
# ref-qualifiers, and the GCC clone suffixes of symbol-table names
# (" [clone .isra.0]", ".constprop.1", ".part.0", ".cold").
TRAILERS = re.compile(r"(?: const| volatile| &&| &| \[clone [^\]]*\])+$")


def base_name(function):
    """Drops qualifiers, GCC clone suffixes, the parameter list and any
    leading return type (demangled template functions carry one), keeping
    the qualified name with its template arguments. Clones of a function
    share its row."""
    name = TRAILERS.sub("", function.replace("(anonymous namespace)", "{anonymous}"))
    if name.endswith(")"):
        depth = 0
        for i in range(len(name) - 1, -1, -1):
            depth += {")": 1, "(": -1}.get(name[i], 0)
            if depth == 0:
                # An inlined call operator is named "operator()" with no
                # parameter list: those parentheses are the name.
                if not name[:i].endswith("operator"):
                    name = name[:i]
                break
    # The last space outside brackets ends the return type. A space after
    # "operator" is part of the name, and one after ")" precedes the
    # qualifier of an enclosing function ("f() const::{lambda()#1}").
    depth = 0
    start = 0
    for i, ch in enumerate(name):
        depth += {"<": 1, "(": 1, "{": 1, ">": -1, ")": -1, "}": -1}.get(ch, 0)
        if ch == " " and depth == 0 and not name[:i].endswith(("operator", ")")):
            start = i + 1
    return name[start:].replace("{anonymous}", "(anonymous namespace)")


def resolve(exe, addresses):
    """Returns {address: [(function, source file), ...]}, innermost frame
    first."""
    run = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
                         input="\n".join(addresses) + "\n",
                         capture_output=True, text=True, check=True)
    frames = {}
    current = None
    lines = run.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = hex(int(line, 16))
            frames[current] = []
            i += 1
            continue
        source = lines[i + 1].rsplit(":", 1)[0] if i + 1 < len(lines) else "??"
        frames[current].append((base_name(line), source))
        i += 2  # function line, then its file:line
    return frames


def demangle(symbols):
    run = subprocess.run(["c++filt"], input="\n".join(symbols) + "\n",
                         capture_output=True, text=True)
    if run.returncode != 0:
        return dict(zip(symbols, symbols))
    return dict(zip(symbols, (base_name(s) for s in run.stdout.splitlines())))


def charge(frames, outside_std):
    if outside_std:
        frames = [f for f in frames if not is_library(f)] or frames[-1:]
    return frames[0][0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("samples")
    parser.add_argument("--outside-std", action="store_true",
                        help="charge library frames to their caller")
    parser.add_argument("--top", type=int, default=40)
    args = parser.parse_args()

    exe_samples = collections.defaultdict(collections.Counter)  # exe -> {addr: n}
    lib_samples = collections.Counter()  # (library, symbol) -> n
    with open(args.samples) as f:
        for line in f:
            kind, module, where, count = line.rstrip("\n").split("\t")
            if kind == "exe":
                exe_samples[module][hex(int(where, 16))] += int(count)
            else:
                lib_samples[(module, where)] += int(count)

    totals = collections.Counter()
    for exe, counts in exe_samples.items():
        frames = resolve(exe, list(counts))
        for address, n in counts.items():
            totals[charge(frames.get(address) or [("??", "??")], args.outside_std)] += n
    names = demangle(sorted({symbol for _, symbol in lib_samples if symbol != "??"}))
    for (library, symbol), n in lib_samples.items():
        totals[f"{names.get(symbol, symbol)} [{library.rsplit('/', 1)[-1]}]"] += n

    total = sum(totals.values())
    if total == 0:
        print("no samples", file=sys.stderr)
        return 1
    print(f"{total} samples")
    print(f"{'samples':>8} {'%':>6}  function")
    for function, n in totals.most_common(args.top):
        print(f"{n:>8} {100.0 * n / total:>6.2f}  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
