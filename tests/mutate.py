"""Mutation check of the world rules and the request path: which one-operator
edits the tests catch.

Swaps one comparison (<, <=, >, >=, ==, !=, in, not in, is, is not) or one
+/- at a time in the modules of MODULES. Each mutant is written into a
temporary copy of the checkout, never into `src/`, and runs the test modules
that import its module, with -x. A mutant they all pass runs once more
against the whole suite: only the whole suite can call it a survivor. A
survivor listed in EQUIVALENT behaves as the original does, and is reported
apart with the reason why. Tests that already fail on the unmutated copy
cannot tell a mutant apart, so every run deselects them.

Takes no options and prints one JSON document; progress goes to stderr:

    python tests/mutate.py > MUTATION_<n>.json

pytest does not collect this file. It takes about 10 minutes on 2 cores.
"""

import ast
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = (
    "validator", "world", "plan", "oracle", "simulator",
    "agent", "prompts", "gateway", "scenario", "cli", "clock", "record",
)
WORKERS = 2
HYPOTHESIS_SEED = 0  # so that a rerun judges each mutant alike

# Operator -> (pattern of its text, replacement).
SWAPS = {
    ast.Lt: (r"<(?!=)", "<="), ast.LtE: (r"<=", "<"),
    ast.Gt: (r">(?!=)", ">="), ast.GtE: (r">=", ">"),
    ast.Eq: (r"==", "!="), ast.NotEq: (r"!=", "=="),
    ast.In: (r"\bin\b", "not in"), ast.NotIn: (r"\bnot\s+in\b", "in"),
    ast.Is: (r"\bis\b", "is not"), ast.IsNot: (r"\bis\s+not\b", "is"),
    ast.Add: (r"\+", "-"), ast.Sub: (r"-", "+"),
}

# (module, function, code, mutant operator) -> why the mutant behaves as the original.
EQUIVALENT = {
    ("oracle.py", "plan_oracle", "rank < best_rank", "<="):
        "no two orders tie: each rank ends with the order's items, one waypoint per item",
}


def sites(source: bytes) -> list[dict]:
    """Each swappable operator in `source`, in source order, with the byte
    span between its operands that holds its text."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    text, found = source.decode(), []

    def walk(node, where):
        if isinstance(node, ast.JoinedStr):
            return  # f-string fields format text; they state no rule
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Compare):
            operands = zip(node.ops, [node.left, *node.comparators], node.comparators)
        elif isinstance(node, ast.BinOp):
            operands = [(node.op, node.left, node.right)]
        elif isinstance(node, ast.AugAssign):
            operands = [(node.op, node.target, node.value)]
        else:
            operands = []
        for op, left, right in operands:
            if type(op) in SWAPS:
                code = " ".join(ast.get_source_segment(text, node).split())
                found.append({
                    "line": left.end_lineno, "function": where or "<module>", "code": code,
                    "span": (starts[left.end_lineno - 1] + left.end_col_offset,
                             starts[right.lineno - 1] + right.col_offset),
                    "op": type(op),
                })
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    walk(ast.parse(source), "")
    return found


def mutate(source: bytes, site: dict) -> tuple[bytes, str, str]:
    """`source` with the site's operator swapped, and the old and new text."""
    start, end = site["span"]
    between = source[start:end].decode()
    pattern, new = SWAPS[site["op"]]
    old = re.search(pattern, between)
    swapped = between[:old.start()] + new + between[old.end():]
    mutant = source[:start] + swapped.encode() + source[end:]
    ast.parse(mutant)  # a swap that breaks the syntax is a bug here
    return mutant, " ".join(old.group().split()), new


def importers(module: str) -> list[str]:
    """The test modules that import `aptbot.<module>`."""
    wanted, found = f"aptbot.{module}", []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
        if wanted in names:
            found.append(f"tests/{path.name}")
    return found


def copy_checkout(into: Path) -> Path:
    junk = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"
    )
    return Path(shutil.copytree(ROOT, into / "checkout", ignore=junk))


def run_pytest(
    checkout: Path, args: list[str], timeout: float | None = None
) -> tuple[int | None, str]:
    """Exit status and output of pytest in `checkout`; None on a timeout."""
    # Failing examples saved by one mutant's run must not steer the next one's.
    shutil.rmtree(checkout / ".hypothesis" / "examples", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           f"--hypothesis-seed={HYPOTHESIS_SEED}", *args]
    proc = subprocess.Popen(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # with any process a test started
        proc.communicate()
        return None, ""
    return proc.returncode, out.decode(errors="replace")


def failures(out: str) -> list[str]:
    return re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", out, re.M)


def judge(checkout: Path, module: str, site: dict, tests: list[str], deselect: list[str],
          timeout: float) -> dict:
    path = checkout / "src" / "aptbot" / f"{module}.py"
    original = path.read_bytes()
    mutant, old, new = mutate(original, site)
    entry = {"site": f"{module}.py:{site['line']}", "function": site["function"],
             "code": site["code"], "from": old, "to": new}
    path.write_bytes(mutant)
    try:
        for scope in (tests, ["tests"]):
            status, out = run_pytest(checkout, ["-x", *scope, *deselect], timeout)
            if status != 0:
                entry["killed_by"] = "timeout" if status is None else (
                    failures(out) or [f"pytest exit {status}"])[0]
                return entry
    finally:
        path.write_bytes(original)
    return entry


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="aptbot-mutate-") as scratch:
        checkouts = [copy_checkout(Path(scratch) / str(i)) for i in range(WORKERS)]
        began = time.monotonic()
        status, out = run_pytest(checkouts[0], ["tests"])
        deselect = [f"--deselect={test}" for test in failures(out)]
        timeout = 3 * (time.monotonic() - began) + 30
        print(f"baseline: {len(deselect)} failing tests deselected, timeout {timeout:.0f} s",
              file=sys.stderr)

        jobs = []
        for module in MODULES:
            source = (ROOT / "src" / "aptbot" / f"{module}.py").read_bytes()
            jobs += [(module, site, importers(module)) for site in sites(source)]
        results: list[dict | None] = [None] * len(jobs)

        def work(worker: int) -> None:
            for index in range(worker, len(jobs), WORKERS):
                module, site, tests = jobs[index]
                results[index] = judge(checkouts[worker], module, site, tests, deselect, timeout)
                verdict = results[index].get("killed_by", "SURVIVED")
                print(f"[{index + 1}/{len(jobs)}] {results[index]['site']} "
                      f"{results[index]['from']} -> {results[index]['to']}: {verdict}",
                      file=sys.stderr)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(WORKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    report = {"modules": {}, "killed": [], "survived": [], "equivalent": [],
              "deselected": [d.split("=", 1)[1] for d in deselect],
              "hypothesis_seed": HYPOTHESIS_SEED}
    for (module, _, tests), entry in zip(jobs, results):
        key = (f"{module}.py", entry["function"], entry["code"], entry["to"])
        if "killed_by" in entry:
            report["killed"].append(entry)
        elif key in EQUIVALENT:
            report["equivalent"].append({**entry, "reason": EQUIVALENT[key]})
        else:
            report["survived"].append(entry)
        counts = report["modules"].setdefault(
            f"{module}.py", {"tests": tests, "mutants": 0, "killed": 0})
        counts["mutants"] += 1
        counts["killed"] += "killed_by" in entry
    judged = len(jobs) - len(report["equivalent"])
    report["score"] = round(len(report["killed"]) / judged, 4) if judged else None
    json.dump(report, sys.stdout, indent=1, ensure_ascii=False)
    print()


if __name__ == "__main__":
    main()
