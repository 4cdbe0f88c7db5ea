"""Byte-identity pins: the outputs must match perfbench/golden.json.

Each bundled ``run`` invocation, ``dump-fis`` and ``compare`` on the seed-1
measured-style inputs of ``perfbench/measured.py`` runs in-process through
``cli.main``; the sha256 of its standard output and of every file it writes
must equal the pinned digest.  The digests are only read here; they are
rewritten by ``perfbench/make_golden.py`` in a change that alters outputs
on purpose.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from nanogrid_ems.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN_PATH = PERFBENCH / "golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
PINNED = sorted(
    label for label in GOLDEN if label.startswith("run ") or label == "dump-fis"
)


def test_every_bundled_invocation_is_pinned():
    scenarios = ("scenario1_high_soc", "scenario2_low_soc_4x", "stress_charge")
    kinds = ("flc", "proportional")
    expected = {f"run {s} --controller {kind}" for s in scenarios for kind in kinds}
    assert set(PINNED) == expected | {"dump-fis"}


@pytest.mark.parametrize("label", PINNED)
def test_outputs_match_golden_digests(label, tmp_path, capsys):
    pins = GOLDEN[label]
    out = tmp_path / "out"
    argv = label.split()
    if label == "dump-fis":
        (name,) = [n for n in pins if n != "stdout"]
        argv += ["--out", str(out / name)]
    else:
        argv += ["--out", str(out)]
    assert_matches_pins(main(argv), out, pins, capsys)


def test_measured_compare_matches_golden_digests(tmp_path, capsys):
    # Two 432 001-row profiles: the one pin that exercises the profile parser
    # at the size of measured data.
    spec = importlib.util.spec_from_file_location("measured", PERFBENCH / "measured.py")
    measured = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measured)
    config = measured.write_inputs(tmp_path / "inputs", 1)
    out = tmp_path / "out"
    status = main(["compare", str(config), "--out", str(out)])
    assert_matches_pins(status, out, GOLDEN["compare measured_day seed=1"], capsys)


def assert_matches_pins(status, out, pins, capsys):
    assert status == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    blobs = {"stdout": captured.out.encode("utf-8")}
    blobs |= {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(blobs) == set(pins)
    for name, data in blobs.items():
        assert hashlib.sha256(data).hexdigest() == pins[name], name
