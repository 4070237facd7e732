#!/usr/bin/env python3
"""Check that the test suites kill every mutant listed in tests/mutants.toml.

Each `[[mutant]]` entry names a `file`, an exact `from` snippet that must
occur there once, its `to` replacement, the cargo test `targets` that must
fail (for example "--test law_small_scope" or "-p div-rewrite --lib") and
its `expect`ed outcome. The check works on a copy of the tree under
`target/mutants/` with its own debug build, so the working tree is never
touched. It first runs every target on the unmutated copy (they must pass),
then, per entry: applies the mutant, builds the targets with
`cargo test --no-run`, runs them, and restores the file. Outcomes:

    killed          a target failed
    survived        every target passed
    did-not-build   the mutated tree does not compile
    did-not-apply   `from` does not occur exactly once in `file`

The exit status is 1 when any outcome differs from its `expect`.

Usage: python3 scripts/mutation_check.py
"""

import shlex
import shutil
import subprocess
import sys
import time
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "tests" / "mutants.toml"
COPY = ROOT / "target" / "mutants" / "tree"
TIMEOUT_S = 900


def tracked_files():
    """Every file of the working tree that git does not ignore, and the
    lock file, so the copy builds the same dependency versions."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    return {Path(name.decode()) for name in out.split(b"\0") if name} | {Path("Cargo.lock")}


def sync_copy():
    """Make COPY hold the working tree's files, rewriting only changed ones so
    the copy's incremental build stays warm."""
    files = {f for f in tracked_files() if (ROOT / f).is_file()}
    for f in files:
        src, dst = ROOT / f, COPY / f
        if not dst.exists() or dst.read_bytes() != src.read_bytes():
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dst)
    for top in COPY.iterdir():
        if top.name == "target":
            continue
        for dst in top.rglob("*") if top.is_dir() else [top]:
            if dst.is_file() and dst.relative_to(COPY) not in files:
                dst.unlink()


def cargo(target, *extra):
    """Run `cargo test` on one target in the copy; True when it exits 0."""
    cmd = ["cargo", "test", "--offline", "-q", *shlex.split(target), *extra]
    try:
        done = subprocess.run(cmd, cwd=COPY, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def run_mutant(mutant):
    """The mutant's outcome and the line its snippet starts on."""
    path = COPY / mutant["file"]
    original = path.read_text()
    if original.count(mutant["from"]) != 1:
        return "did-not-apply", None
    line = original[: original.index(mutant["from"])].count("\n") + 1
    path.write_text(original.replace(mutant["from"], mutant["to"]))
    try:
        if not all(cargo(t, "--no-run") for t in mutant["targets"]):
            return "did-not-build", line
        if all(cargo(t) for t in mutant["targets"]):
            return "survived", line
        return "killed", line
    finally:
        path.write_text(original)


def main():
    mutants = tomllib.loads(LIST.read_text())["mutant"]
    started = time.monotonic()
    sync_copy()
    targets = sorted({t for m in mutants for t in m["targets"]})
    for target in targets:
        if not cargo(target):
            print(f"the unmutated tree fails `cargo test {target}`")
            return 1
    wrong = 0
    for mutant in mutants:
        tick = time.monotonic()
        outcome, line = run_mutant(mutant)
        wrong += outcome != mutant["expect"]
        first_line = mutant["from"].strip().splitlines()[0]
        mark = "" if outcome == mutant["expect"] else f"  (expected {mutant['expect']})"
        where = f"{mutant['file']}:{line}" if line else mutant["file"]
        print(f"{outcome:13} {time.monotonic() - tick:5.1f} s  {where}: {first_line}{mark}",
              flush=True)
    print(f"{len(mutants)} mutants, {wrong} unexpected, "
          f"{time.monotonic() - started:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
