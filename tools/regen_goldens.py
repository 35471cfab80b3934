#!/usr/bin/env python3
"""Regenerate the golden tables pinned by the test suite.

Runs the golden_hashes binary (which prints one C++ initializer row per
golden point for the *current* engine), splices its output between the
GOLDEN-TABLE-BEGIN/END, SCENARIO-GOLDEN, FAT-TREE-GOLDEN and EXPORT-GOLDEN
markers in tests/determinism_test.cc and — when --expsvc-test-file is given —
between the CONFIG-HASH-GOLDEN markers in tests/experiment_service_test.cc,
then prints a unified diff of what changed.  With --check, the files are left
untouched and the script exits non-zero if any table is stale.

Usual invocation is via the cmake target, from the repo root:

    cmake --build build --target regen-goldens

which builds the tool and runs this script.  A non-empty diff means the
engine's observable behaviour changed; commit the new table only if that
change is intended (and say why in the commit message).
"""

import argparse
import difflib
import pathlib
import subprocess
import sys

BEGIN = "// GOLDEN-TABLE-BEGIN"
END = "// GOLDEN-TABLE-END"
SCN_BEGIN = "// SCENARIO-GOLDEN-BEGIN"
SCN_END = "// SCENARIO-GOLDEN-END"
SCN_LINE = "constexpr uint64_t kScenarioCampaignGolden"
FT_BEGIN = "// FAT-TREE-GOLDEN-BEGIN"
FT_END = "// FAT-TREE-GOLDEN-END"
FT_LINE = "const FatTreeGolden kFatTreeGoldens"
EXP_BEGIN = "// EXPORT-GOLDEN-BEGIN"
EXP_END = "// EXPORT-GOLDEN-END"
EXP_LINE = "const ExportGolden kExportGoldens"
CFG_BEGIN = "// CONFIG-HASH-GOLDEN-BEGIN"
CFG_END = "// CONFIG-HASH-GOLDEN-END"
CFG_LINE = "const ConfigHashGolden kConfigHashGoldens"


def splice_between(text: str, begin_marker: str, end_marker: str,
                   replacement: str) -> str:
    begin = text.index(begin_marker)
    end = text.index(end_marker)
    if end < begin:
        raise SystemExit(f"{begin_marker} markers out of order")
    head = text[: text.index("\n", begin) + 1]
    tail = text[end:]
    return head + replacement + tail


def split_tool_output(output: str) -> list[str]:
    # The tool prints the determinism golden table, then the
    # scenario-campaign constant, the fat-tree goldens, the export goldens and
    # the config-hash golden table; split on the declaration lines.
    cuts = [0] + [output.index(line)
                  for line in (SCN_LINE, FT_LINE, EXP_LINE, CFG_LINE)]
    if cuts != sorted(cuts):
        raise SystemExit("golden_hashes output sections out of order")
    return [output[a:b] for a, b in zip(cuts, cuts[1:] + [len(output)])]


def regenerate(path: pathlib.Path, markers: list[tuple[str, str]],
               sections: list[str], check: bool) -> bool:
    """Splices sections into path; returns True when the file was stale."""
    old = path.read_text()
    for begin_marker, end_marker in markers:
        for marker in (begin_marker, end_marker):
            if marker not in old:
                raise SystemExit(f"{path}: marker {marker} not found")
    new = old
    for (begin_marker, end_marker), section in zip(markers, sections):
        new = splice_between(new, begin_marker, end_marker, section)
    diff = list(difflib.unified_diff(old.splitlines(keepends=True),
                                     new.splitlines(keepends=True),
                                     fromfile=str(path),
                                     tofile=f"{path} (regenerated)"))
    if not diff:
        return False
    sys.stdout.writelines(diff)
    if not check:
        path.write_text(new)
        print(f"\nupdated {path}")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tool", required=True,
                        help="path to the built golden_hashes binary")
    parser.add_argument("--test-file", required=True,
                        help="path to tests/determinism_test.cc")
    parser.add_argument("--expsvc-test-file",
                        help="path to tests/experiment_service_test.cc "
                             "(config-hash golden table)")
    parser.add_argument("--check", action="store_true",
                        help="diff only; exit 1 if a table is stale")
    args = parser.parse_args()

    output = subprocess.run([args.tool], check=True, capture_output=True,
                            text=True).stdout
    if not output.strip():
        raise SystemExit(f"{args.tool} produced no output")
    for line, what in ((SCN_LINE, "scenario golden"), (FT_LINE, "fat-tree goldens"),
                       (EXP_LINE, "export goldens"), (CFG_LINE, "config-hash goldens")):
        if line not in output:
            raise SystemExit(f"{args.tool}: no {what} in output")
    rows, scn, ft, exp, cfg = split_tool_output(output)

    stale = regenerate(pathlib.Path(args.test_file),
                       [(BEGIN, END), (SCN_BEGIN, SCN_END), (FT_BEGIN, FT_END),
                        (EXP_BEGIN, EXP_END)],
                       [rows, scn, ft, exp], args.check)
    if args.expsvc_test_file:
        stale |= regenerate(pathlib.Path(args.expsvc_test_file),
                            [(CFG_BEGIN, CFG_END)], [cfg], args.check)

    if not stale:
        print("golden tables up to date")
        return 0
    if args.check:
        print("\ngolden tables are STALE (run the regen-goldens target)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
