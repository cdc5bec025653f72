#!/usr/bin/env python3
"""Determinism lint driver: the ltp-tidy checks over the tree.

The simulator's headline contract — stats dumps byte-identical for
every simThreads value — is enforced at compile time by five project
clang-tidy checks (tools/ltp-tidy/):

    ltp-no-wallclock            model code runs on virtual time only
    ltp-no-shared-rng           counter-based draws, no shared streams
    ltp-no-unordered-container  deterministic iteration only
    ltp-no-pointer-order        no address-ordered/hashed results
    ltp-stat-purity             guard/ and obs/ never mutate StatGroup

This driver owns the path policy (which checks apply where), runs one
of two engines, filters findings through the committed suppression
baseline (tools/tidy_baseline.json), and fails only on *new* findings:

  - plugin: the real clang-tidy with -load libltp-tidy-module.so plus a
    curated stock profile (bugprone-*, concurrency-*, selected
    performance-*). Needs the module built (cmake -DLTP_BUILD_TIDY=ON)
    and a clang-tidy executable on PATH.
  - lite: a pure-Python approximation of the five project checks
    (comment/string-stripped regex matching). No toolchain needed, so
    the determinism lint runs everywhere; AST-only patterns (e.g. raw
    pointer `<` comparisons) are plugin-mode only, and the stock
    profile is unavailable.

Engine selection is automatic (plugin when usable, else lite, loudly).

    $ python3 tools/run_ltp_tidy.py                    # sweep the tree
    $ python3 tools/run_ltp_tidy.py --self-test        # fixture corpus
    $ python3 tools/run_ltp_tidy.py src/net            # subtree only

--self-test runs every tests/tidy/fixtures/<check>_{bad,ok}.cc and
requires the check to fire on exactly the lines marked for the active
engine: lines ending in `// expect` for both engines, plus those ending
in `// expect-plugin` (AST-only) for the plugin. The _ok fixtures
(sanctioned idioms) carry no marks, so they must stay silent. Exit 77
(ctest SKIP) only when no engine can run at all.

Stock-profile findings are advisory by default (reported, uploaded,
not fatal) until a baseline is captured from a real clang-tidy run;
pass --stock-strict to gate on them too. Project-check findings are
always fatal unless baselined.

Like tools/perf_gate.py, the driver appends a findings table to the
GitHub Actions job summary when GITHUB_STEP_SUMMARY is set, and writes
a JSON report with --report for the CI artifact.
"""

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROJECT_CHECKS = (
    "ltp-no-wallclock",
    "ltp-no-shared-rng",
    "ltp-no-unordered-container",
    "ltp-no-pointer-order",
    "ltp-stat-purity",
)

# Path policy — the single source of truth shared by both engines.
# Model code must satisfy the four determinism checks; the observer
# subsystems (src/obs, src/sim/guard) are exempt from those (they own
# host-side clocks and profiling state by design) but must satisfy
# ltp-stat-purity: arming them may never change a stats dump.
MODEL_DIRS = ("src/dsm", "src/net", "src/sim", "src/mem", "src/proto",
              "src/predictor", "src/kernel")
OBSERVER_DIRS = ("src/obs", "src/sim/guard")
DETERMINISM_CHECKS = ("ltp-no-wallclock", "ltp-no-shared-rng",
                      "ltp-no-unordered-container", "ltp-no-pointer-order")

# Curated stock profile (plugin mode only). The two disabled bugprone
# checks drown signal in style noise on this codebase.
STOCK_CHECKS = ("bugprone-*", "-bugprone-easily-swappable-parameters",
                "-bugprone-narrowing-conversions", "concurrency-*",
                "performance-for-range-copy",
                "performance-unnecessary-copy-initialization",
                "performance-unnecessary-value-param",
                "performance-move-const-arg",
                "performance-inefficient-vector-operation")

SOURCE_EXTS = (".cc", ".hh")


def rel(path):
    path = os.path.abspath(path)
    return os.path.relpath(path, REPO).replace(os.sep, "/")


def in_dirs(relpath, dirs):
    return any(relpath == d or relpath.startswith(d + "/") for d in dirs)


def checks_for_path(relpath):
    """Which project checks apply to a finding at this path."""
    if in_dirs(relpath, OBSERVER_DIRS):
        return ("ltp-stat-purity",)
    if in_dirs(relpath, MODEL_DIRS):
        return DETERMINISM_CHECKS
    return ()


class Finding:
    def __init__(self, check, file, line, message, engine, advisory=False):
        self.check = check
        self.file = file            # repo-relative
        self.line = line            # 1-based
        self.message = message
        self.engine = engine        # "plugin" | "lite"
        self.advisory = advisory    # stock-profile finding
        self.line_text = ""         # source text, for baseline matching
        self.suppressed_by = None   # baseline reason once matched

    def key(self):
        return (self.check, self.file, self.line)

    def __repr__(self):
        return f"{self.file}:{self.line}: {self.message} [{self.check}]"


# --------------------------------------------------------------------------
# lite engine: comment/string-stripped regex scan
# --------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line
    structure so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str / chr
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else c)
        i += 1
    return "".join(out)


# check -> [(regex, message)]; matched against stripped lines.
LITE_PATTERNS = {
    "ltp-no-wallclock": [
        (re.compile(r"std\s*::\s*chrono\s*::\s*\w*clock\s*::\s*now"),
         "std::chrono clock read in model code; model decisions must "
         "use virtual time (EventQueue::now()) only"),
        (re.compile(r"(?<![\w.>])(?:gettimeofday|clock_gettime|"
                    r"timespec_get|ftime)\s*\("),
         "wall-clock read in model code; model decisions must use "
         "virtual time (EventQueue::now()) only"),
        (re.compile(r"(?<![\w.>])time\s*\(\s*(?:0|NULL|nullptr)?\s*\)"),
         "wall-clock read in model code; model decisions must use "
         "virtual time (EventQueue::now()) only"),
        (re.compile(r"(?<![\w.>])clock\s*\(\s*\)"),
         "wall-clock read in model code; model decisions must use "
         "virtual time (EventQueue::now()) only"),
    ],
    "ltp-no-shared-rng": [
        (re.compile(r"(?<![\w.>])(?:s?rand|s?random|rand_r|[dlm]rand48|"
                    r"srand48)\s*\("),
         "C-library RNG in model code; use ltp::counterHash() "
         "(sim/rng.hh)"),
        (re.compile(r"std\s*::\s*(?:random_device|mt19937(?:_64)?|"
                    r"minstd_rand0?|default_random_engine|knuth_b|"
                    r"ranlux\d+(?:_base)?|mersenne_twister_engine|"
                    r"linear_congruential_engine|"
                    r"subtract_with_carry_engine|discard_block_engine|"
                    r"independent_bits_engine|shuffle_order_engine)"),
         "std random engine in model code; use ltp::counterHash() "
         "(sim/rng.hh)"),
        # Member streams, by the house naming convention (trailing _).
        (re.compile(r"(?<![\w:])(?:ltp\s*::\s*)?Rng\s+\w*_\s*"
                    r"(?:=[^;]*)?[;{]"),
         "ltp::Rng member: a shared stream whose consumption order is "
         "part of the result; use ltp::counterHash() or record the "
         "single-consumer justification in tools/tidy_baseline.json"),
    ],
    "ltp-no-unordered-container": [
        (re.compile(r"(?<!\w)std\s*::\s*unordered_(?:multi)?(?:map|set)"
                    r"\b"),
         "unordered container in model code: iteration order is not "
         "deterministic; use ltp::FlatMap/FlatSet or std::map/set"),
    ],
    "ltp-no-pointer-order": [
        (re.compile(r"std\s*::\s*(?:less|greater|less_equal|"
                    r"greater_equal|hash)\s*<[^<>]*\*\s*>"),
         "ordering/hashing functor on a pointer type: address-space "
         "layout leaks into results; key on stable model ids"),
        (re.compile(r"(?:reinterpret_cast|static_cast)\s*<\s*"
                    r"(?:std\s*::\s*)?u?intptr_t\s*>"),
         "pointer-to-integer cast in model code: the address is not a "
         "stable value; derive ids from model structure"),
        (re.compile(r"(?:(?<![\w:])FlatMap|(?<![\w:])FlatSet|"
                    r"std\s*::\s*(?:multi)?(?:map|set))\s*<\s*"
                    r"[\w:]+(?:\s+[\w:]+)*\s*\*\s*[,>]"),
         "container keyed on raw pointers: iteration order follows the "
         "address space; key on stable model ids"),
    ],
    "ltp-stat-purity": [
        (re.compile(r"(?:\.|->)\s*(?:counter|average|histogram)\s*\("),
         "observer code acquires a StatGroup handle: guard/ and obs/ "
         "must keep stats dumps byte-identical; own counters outside "
         "StatGroup (obs/engine_profile.hh idiom)"),
        (re.compile(r"(?:\.|->)\s*(?:mergeFrom|resetAll)\s*\("),
         "observer code mutates StatGroup state: guard/ and obs/ must "
         "keep stats dumps byte-identical"),
        (re.compile(r"(?:\.|->)\s*(?:inc|sample)\s*\("),
         "observer code mutates a stat object: guard/ and obs/ must "
         "keep stats dumps byte-identical; own counters outside "
         "StatGroup (obs/engine_profile.hh idiom)"),
    ],
}

NOLINT = re.compile(r"NOLINT(?:NEXTLINE)?(?:\(([^)]*)\))?")

# `using Clock = std::chrono::steady_clock;` — the alias hides the
# chrono name from the static patterns, so collect alias names per
# file and flag `<Alias>::now()` reads at their call sites (the same
# lines the plugin's AST matcher reports).
CLOCK_ALIAS = re.compile(r"(?:using\s+(\w+)\s*=|typedef)\s*std\s*::\s*"
                         r"chrono\s*::\s*\w*clock\s*(?:\s(\w+))?\s*;")


def clock_alias_patterns(stripped_lines):
    names = set()
    for text in stripped_lines:
        m = CLOCK_ALIAS.search(text)
        if m:
            names.add(m.group(1) or m.group(2))
    return [
        (re.compile(r"(?<![\w.>])" + re.escape(n) + r"\s*::\s*now\s*\("),
         "std::chrono clock read (through alias '%s') in model code; "
         "model decisions must use virtual time (EventQueue::now()) "
         "only" % n)
        for n in sorted(names) if n
    ]


def lite_scan_file(path, checks):
    """Run the lite engine's patterns for `checks` over one file."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        sys.exit(f"ltp-tidy: cannot read {path}: {e}")
    stripped = strip_comments_and_strings(raw).split("\n")
    raw_lines = raw.split("\n")
    findings = []
    for check in checks:
        patterns = list(LITE_PATTERNS[check])
        if check == "ltp-no-wallclock":
            patterns += clock_alias_patterns(stripped)
        for pattern, message in patterns:
            for lineno, text in enumerate(stripped, start=1):
                if not pattern.search(text):
                    continue
                # Honor clang-tidy NOLINT markers on the raw line and
                # the one above, same as the plugin engine would.
                raw_text = raw_lines[lineno - 1]
                prev = raw_lines[lineno - 2] if lineno >= 2 else ""
                if nolinted(check, raw_text, prev):
                    continue
                f = Finding(check, rel(path), lineno, message, "lite")
                f.line_text = raw_text.strip()
                findings.append(f)
    return findings


def nolinted(check, line, prev_line):
    for source, want in ((line, "NOLINT"), (prev_line, "NOLINTNEXTLINE")):
        for m in NOLINT.finditer(source):
            if not m.group(0).startswith(want):
                continue
            scope = m.group(1)
            if scope is None or check in [s.strip()
                                          for s in scope.split(",")]:
                return True
    return False


# --------------------------------------------------------------------------
# plugin engine: the real clang-tidy with -load
# --------------------------------------------------------------------------

def find_clang_tidy():
    for name in ("clang-tidy", "clang-tidy-20", "clang-tidy-19",
                 "clang-tidy-18", "clang-tidy-17", "clang-tidy-16",
                 "clang-tidy-15", "clang-tidy-14"):
        path = shutil.which(name)
        if path:
            return path
    return None


def find_module(build_dir):
    if not build_dir:
        return None
    cand = os.path.join(build_dir, "tools", "ltp-tidy",
                        "libltp-tidy-module.so")
    return cand if os.path.exists(cand) else None


DIAG = re.compile(r"^(?P<file>[^:\s][^:]*):(?P<line>\d+):\d+:\s+"
                  r"(?:warning|error):\s+(?P<msg>.*?)\s+"
                  r"\[(?P<checks>[\w\-.,*]+)\]$")


def parse_clang_tidy_output(text):
    findings = []
    for line in text.splitlines():
        m = DIAG.match(line)
        if not m:
            continue
        path = m.group("file")
        if not os.path.isabs(path):
            path = os.path.join(REPO, path)
        relpath = rel(path)
        if relpath.startswith(".."):
            continue  # system/toolchain header
        for check in m.group("checks").split(","):
            check = check.strip()
            advisory = not check.startswith("ltp-")
            findings.append(Finding(check, relpath, int(m.group("line")),
                                    m.group("msg"), "plugin", advisory))
    return findings


def plugin_run(tidy, module, files, checks, build_dir, extra_args=(),
               jobs=None):
    """Run clang-tidy (+ the ltp module) over `files`, returning raw
    findings (not yet scope-filtered)."""
    check_arg = "-checks=-*," + ",".join(checks)
    base = [tidy, "-load", module, check_arg, "-quiet",
            "-header-filter=.*/src/.*"]

    def one(path):
        cmd = list(base) + [path]
        if extra_args:
            cmd += ["--"] + list(extra_args)
        elif build_dir:
            cmd += ["-p", build_dir]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        # clang-tidy exits nonzero on hard errors (missing headers,
        # bad -load); surface those instead of reporting a clean run.
        if proc.returncode != 0 and "error:" in proc.stderr and \
                not DIAG.search(proc.stdout or ""):
            raise RuntimeError(
                f"clang-tidy failed on {path}:\n{proc.stderr.strip()}")
        return parse_clang_tidy_output(proc.stdout)

    findings = []
    workers = jobs or max(1, (os.cpu_count() or 2) - 1)
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        for batch in pool.map(one, files):
            findings.extend(batch)
    return findings


def attach_line_text(findings):
    cache = {}
    for f in findings:
        path = os.path.join(REPO, f.file)
        if f.file not in cache:
            try:
                with open(path, encoding="utf-8",
                          errors="replace") as fh:
                    cache[f.file] = fh.read().split("\n")
            except OSError:
                cache[f.file] = []
        lines = cache[f.file]
        if 1 <= f.line <= len(lines):
            f.line_text = lines[f.line - 1].strip()


# --------------------------------------------------------------------------
# baseline
# --------------------------------------------------------------------------

def load_baseline(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "ltp_tidy_baseline/v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    entries = doc.get("suppressions")
    if not isinstance(entries, list):
        sys.exit(f"{path}: no \"suppressions\" array")
    for i, e in enumerate(entries):
        for k in ("check", "file", "contains", "reason"):
            if not isinstance(e.get(k), str) or not e[k]:
                sys.exit(f"{path}: suppressions[{i}] missing or empty "
                         f"\"{k}\" (need check/file/contains/reason)")
    return entries


def apply_baseline(findings, baseline):
    """Mark findings matched by a suppression; return unused entries.

    An entry matches on exact check, file suffix, and a substring of
    the finding's source line — line numbers are deliberately not part
    of the match so unrelated edits don't invalidate the baseline.
    """
    used = [False] * len(baseline)
    for f in findings:
        for i, e in enumerate(baseline):
            if e["check"] != f.check:
                continue
            if not (f.file == e["file"] or
                    f.file.endswith("/" + e["file"])):
                continue
            if e["contains"] not in f.line_text:
                continue
            f.suppressed_by = e["reason"]
            used[i] = True
            break
    return [e for i, e in enumerate(baseline) if not used[i]]


# --------------------------------------------------------------------------
# sweep + self-test
# --------------------------------------------------------------------------

def tree_files(paths):
    files = []
    roots = [os.path.join(REPO, p) for p in paths] if paths else \
        [os.path.join(REPO, "src")]
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def sweep(args, engine, tidy, module):
    files = tree_files(args.paths)
    scoped = [(f, checks_for_path(rel(f))) for f in files]
    scoped = [(f, c) for f, c in scoped if c]

    findings = []
    if engine == "plugin":
        # One clang-tidy run with every check enabled; the scope filter
        # below keeps path policy in one place. Headers are reached
        # through their includers (-header-filter), so only .cc files
        # are driven.
        cc = [f for f, _ in scoped if f.endswith(".cc")]
        checks = list(PROJECT_CHECKS)
        if not args.no_stock:
            checks += list(STOCK_CHECKS)
        findings = plugin_run(tidy, module, cc, checks, args.build_dir,
                              jobs=args.jobs)
        attach_line_text(findings)
        # Scope filter + dedupe (a header finding repeats per includer).
        seen = set()
        kept = []
        for f in findings:
            if f.check.startswith("ltp-") and \
                    f.check not in checks_for_path(f.file):
                continue
            if not f.check.startswith("ltp-") and \
                    not in_dirs(f.file, MODEL_DIRS + OBSERVER_DIRS):
                continue
            if f.key() in seen:
                continue
            seen.add(f.key())
            kept.append(f)
        findings = kept
    else:
        for path, checks in scoped:
            findings.extend(lite_scan_file(path, checks))

    findings.sort(key=lambda f: (f.file, f.line, f.check))
    baseline = load_baseline(args.baseline)
    unused = apply_baseline(findings, baseline)

    active = [f for f in findings if not f.suppressed_by]
    suppressed = [f for f in findings if f.suppressed_by]
    fatal = [f for f in active
             if not f.advisory or args.stock_strict]

    print(f"ltp-tidy sweep: engine={engine}, {len(files)} file(s), "
          f"{len(findings)} finding(s) "
          f"({len(suppressed)} baselined, {len(active)} active)")
    for f in active:
        tag = " (advisory)" if f.advisory and not args.stock_strict \
            else ""
        print(f"  {f.file}:{f.line}: {f.message} [{f.check}]{tag}")
    for f in suppressed:
        print(f"  baselined: {f.file}:{f.line} [{f.check}] — "
              f"{f.suppressed_by}")
    for e in unused:
        print(f"  note: unused baseline entry {e['check']} @ "
              f"{e['file']} (\"{e['contains']}\") — drop it?")

    write_report(args.report, engine, findings, unused)
    write_github_summary(engine, findings, fatal)

    if fatal:
        print(f"\nFAIL: {len(fatal)} unsuppressed finding(s); fix them "
              "or record a justified entry in tools/tidy_baseline.json")
        return 1
    print("\nOK: no unsuppressed findings")
    return 0


# A fixture line ending in `// expect` must be flagged by both engines;
# one ending in `// expect-plugin` is AST-only, flagged by the plugin
# alone (listed in tools/ltp-tidy/README.md).
FIXTURE_MARK = re.compile(r"//\s*expect(-plugin)?\s*$")


def fixture_marks(text, engine):
    """The line numbers a fixture says `engine` must flag."""
    marks = set()
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = FIXTURE_MARK.search(line)
        if m and (engine == "plugin" or not m.group(1)):
            marks.add(lineno)
    return marks


def self_test(args, engine, tidy, module):
    fixtures = os.path.join(REPO, "tests", "tidy", "fixtures")
    if not os.path.isdir(fixtures):
        print(f"ltp-tidy self-test: fixture dir {fixtures} missing")
        return 77
    slug = {c: c.replace("ltp-", "").replace("-", "_")
            for c in PROJECT_CHECKS}

    failures = []
    ran = 0
    for check in PROJECT_CHECKS:
        for kind in ("bad", "ok"):
            name = f"{slug[check]}_{kind}.cc"
            path = os.path.join(fixtures, name)
            if not os.path.exists(path):
                failures.append(f"{name}: fixture missing")
                continue
            with open(path) as f:
                marks = fixture_marks(f.read(), engine)
            if kind == "bad" and not marks:
                failures.append(f"{name}: no line marked `// expect`")

            if engine == "plugin":
                found = plugin_run(tidy, module, [path], [check], None,
                                   extra_args=("-std=c++17",
                                               "-I" + os.path.join(
                                                   REPO, "src")))
                found = [f for f in found if f.check == check]
            else:
                found = lite_scan_file(path, [check])
            ran += 1
            # Exactly the marked lines: each must fire, no other may.
            hit = {f.line for f in found}
            for line in sorted(marks - hit):
                failures.append(f"{name}:{line}: {check} did not fire "
                                f"(engine={engine})")
            for f in found:
                if f.line not in marks:
                    failures.append(f"{name}:{f.line}: {check} fired on "
                                    f"an unmarked line: {f.message} "
                                    f"(engine={engine})")

    print(f"ltp-tidy self-test: engine={engine}, {ran} fixture(s)")
    if failures:
        for f in failures:
            print(f"  FAIL: {f}")
        return 1
    print("  every check fires on exactly its fixtures' marked lines")
    return 0


# --------------------------------------------------------------------------
# reporting
# --------------------------------------------------------------------------

def write_report(path, engine, findings, unused_baseline):
    if not path:
        return
    doc = {
        "schema": "ltp_tidy_report/v1",
        "engine": engine,
        "findings": [
            {
                "check": f.check,
                "file": f.file,
                "line": f.line,
                "message": f.message,
                "advisory": f.advisory,
                "suppressedBy": f.suppressed_by,
            }
            for f in findings
        ],
        "unusedBaselineEntries": unused_baseline,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def write_github_summary(engine, findings, fatal):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    active = [f for f in findings if not f.suppressed_by]
    with open(path, "a") as f:
        f.write(f"### Determinism lint (engine: {engine})\n\n")
        if not active:
            n = len(findings)
            f.write(f"No unsuppressed findings ({n} baselined).\n")
        else:
            f.write("| check | file:line | finding | |\n")
            f.write("|---|---|---|---|\n")
            for x in active:
                note = "advisory" if x.advisory and x not in fatal \
                    else ":x:"
                f.write(f"| `{x.check}` | `{x.file}:{x.line}` | "
                        f"{x.message} | {note} |\n")
        verdict = "FAIL" if fatal else "PASS"
        f.write(f"\n**{len(fatal)} gating finding(s) — {verdict}**\n")


# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    help="files or directories to sweep (default: src)")
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build"),
                    help="CMake build dir: compile_commands.json + the "
                         "plugin module (default: build)")
    ap.add_argument("--engine", choices=("auto", "plugin", "lite"),
                    default="auto")
    ap.add_argument("--baseline",
                    default=os.path.join(REPO, "tools",
                                         "tidy_baseline.json"))
    ap.add_argument("--report", help="write a JSON findings report here")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture corpus instead of the tree")
    ap.add_argument("--no-stock", action="store_true",
                    help="project checks only (skip the stock profile)")
    ap.add_argument("--stock-strict", action="store_true",
                    help="gate on stock-profile findings too")
    ap.add_argument("--jobs", type=int,
                    help="parallel clang-tidy processes")
    args = ap.parse_args()

    tidy = find_clang_tidy()
    module = find_module(args.build_dir)
    engine = args.engine
    if engine == "auto":
        engine = "plugin" if tidy and module else "lite"
        if engine == "lite":
            why = []
            if not tidy:
                why.append("no clang-tidy on PATH")
            if not module:
                why.append("plugin module not built "
                           "(cmake -DLTP_BUILD_TIDY=ON)")
            print("=" * 70)
            print("ltp-tidy NOTICE: falling back to the LITE engine "
                  f"({'; '.join(why)}).")
            print("The five project checks run as regex approximations; "
                  "AST-only patterns and the stock clang-tidy profile "
                  "are skipped.")
            print("=" * 70)
    elif engine == "plugin" and (not tidy or not module):
        sys.exit("ltp-tidy: --engine=plugin but clang-tidy or the "
                 "module is unavailable")

    if args.self_test:
        return self_test(args, engine, tidy, module)
    return sweep(args, engine, tidy, module)


if __name__ == "__main__":
    sys.exit(main())
