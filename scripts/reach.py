"""Lines of ``src/`` that the command line never executes.

    python scripts/reach.py

Runs ``python -m nanogrid_ems`` in-process under the standard library's
``trace`` module: ``run`` on every bundled scenario under each
controller, through copies of the configs cut to ``duration_s = 600``;
``compare`` on one of those copies; ``run stress_charge --controller
proportional``, a bundled scenario by its bare name (12 h, about 4 s
traced); ``run`` on a 60 s scenario that clamps the SOC; ``run`` on that
scenario with a plain-text profile named ``*.gz``, which numpy would
decompress by its name, so the line loop parses its text; ``run`` on
that scenario with a PV profile that holds a ``6_0`` time and a blank row,
one with a word for a power, and one that is not valid UTF-8, and with
``dt_s = one``; ``run`` on the clamping scenario with standard output a
pipe whose reader has closed; ``dump-fis``; and ``run`` on a missing
scenario.
The package is imported under the tracer, so its module-level lines
count. The script then prints every line of ``src/nanogrid_ems`` that
holds code, never ran and is not part of a ``raise`` statement, as
``path:line: text``, and exits 1 if a command did not end with the
status expected of it. Only the standard library is used.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "nanogrid_ems"
CLI = "nanogrid_ems"
DURATION_S = 600
# The marker trace.CoverageResults writes before a line that never ran.
MISSING = ">>>>>> "


def _run(module: str, argv: list[str], stdout=None) -> tuple[int, str]:
    """``python -m MODULE ARGV`` in this process: (status, stderr).

    Standard output goes to the text stream ``stdout``, or else is discarded.
    """
    stdout, stderr = stdout or io.StringIO(), io.StringIO()
    saved, sys.argv = sys.argv, [module, *argv]
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        return exc.code, stderr.getvalue()
    finally:
        sys.argv = saved
    raise RuntimeError("nanogrid_ems did not exit")


def exercise(work: Path) -> list[str]:
    """Run every command once; return a message for each unexpected status."""
    from nanogrid_ems.controller import CONTROLLER_KINDS
    from nanogrid_ems.profiles import data_dir

    out = str(work / "out")
    commands = []
    for bundled in sorted(data_dir().glob("*.cfg")):
        lines = []
        for line in bundled.read_text(encoding="utf-8").splitlines():
            key, _, value = (part.strip() for part in line.partition("="))
            if key in ("pv_profile", "load_profile"):
                line = f"{key} = {data_dir() / value}"
            elif key == "duration_s":
                line = f"{key} = {DURATION_S}"
            lines.append(line)
        cfg = work / bundled.name
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for kind in CONTROLLER_KINDS:
            argv = ["run", str(cfg), "--out", out, "--controller", kind]
            commands.append((CLI, argv, 0))
    commands.append((CLI, ["compare", str(cfg), "--out", out], 0))
    argv = ["run", "stress_charge", "--out", out, "--controller", "proportional"]
    commands.append((CLI, argv, 0))
    # No bundled scenario clamps the SOC in its first 600 s, and no bundled
    # config holds a comment; this config does both.
    (work / "zero.csv").write_text("t_s,power_w\n0,0\n60,0\n", encoding="utf-8")
    (work / "load.csv").write_text("t_s,power_w\n0,1500\n60,1500\n", encoding="utf-8")
    clamp = work / "clamp.cfg"
    clamp.write_text(
        "# An empty battery under a load the turbine cannot carry\n"
        "pv_profile = zero.csv\nload_profile = load.csv\n"
        "soc_init_pct = 0\nduration_s = 60\n",
        encoding="utf-8",
    )
    commands.append((CLI, ["run", str(clamp), "--out", out], 0))
    (work / "zero.gz").write_text("t_s,power_w\n0,0\n60,0\n", encoding="utf-8")
    gz = work / "gz.cfg"
    gz.write_text(
        clamp.read_text(encoding="utf-8").replace("zero.csv", "zero.gz"),
        encoding="utf-8",
    )
    commands.append((CLI, ["run", str(gz), "--out", out], 0))
    # numpy's reader refuses `6_0`, which float() reads as 60, so the line
    # loop parses the first profile and skips its blank row. The other two
    # fail in the line loop and in the UTF-8 check.
    bad_profiles = {
        "underscore.csv": (b"t_s,power_w\n0,0\n\n6_0,0\n", 0),
        "word.csv": (b"t_s,power_w\n0,0\n60,zero\n", 1),
        "latin1.csv": (b"t_s,power_w\n0,0\n60,0\xb0\n", 1),
    }
    for name, (data, expected) in bad_profiles.items():
        (work / name).write_bytes(data)
        cfg = work / f"{Path(name).stem}.cfg"
        cfg.write_text(
            clamp.read_text(encoding="utf-8").replace("zero.csv", name),
            encoding="utf-8",
        )
        commands.append((CLI, ["run", str(cfg), "--out", out], expected))
    word_dt = work / "word_dt.cfg"
    word_dt.write_text(
        clamp.read_text(encoding="utf-8") + "dt_s = one\n", encoding="utf-8"
    )
    commands.append((CLI, ["run", str(word_dt), "--out", out], 1))
    # The summary fits the stream's buffer, so the failure comes at the flush.
    read, write = os.pipe()
    os.close(read)
    broken = open(write, "w", encoding="utf-8")
    commands.append((CLI, ["run", str(clamp), "--out", out], 1, broken))
    commands.append((CLI, ["dump-fis", "--out", str(work / "out" / "fis.cfg")], 0))
    commands.append((CLI, ["run", str(work / "missing.cfg"), "--out", out], 1))

    failures = []
    with broken:
        for module, argv, expected, *stdout in commands:
            status, stderr = _run(module, argv, *stdout)
            if status != expected:
                failures.append(f"{module} {' '.join(argv)}: exit {status}: {stderr}")
    return failures


def raise_lines(path: Path) -> set[int]:
    """Every line of every ``raise`` statement in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for lineno in range(node.lineno, node.end_lineno + 1)
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        failures = tracer.runfunc(exercise, work)
        coverdir = work / "cover"
        tracer.results().write_results(
            show_missing=True, summary=False, coverdir=str(coverdir)
        )
        for path in sorted(PACKAGE.glob("*.py")):
            cover = coverdir / f"nanogrid_ems.{path.stem}.cover"
            if not cover.exists():
                failures.append(f"{path.name} was never imported")
                continue
            raised = raise_lines(path)
            marked = cover.read_text(encoding="utf-8").splitlines()
            for lineno, line in enumerate(marked, start=1):
                if line.startswith(MISSING) and lineno not in raised:
                    text = line[len(MISSING):].strip()
                    print(f"{path.relative_to(SRC)}:{lineno}: {text}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
