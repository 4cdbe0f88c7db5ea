"""Byte-identity pins: the bundled outputs must match perfbench/golden.json.

Each bundled ``run`` invocation and ``dump-fis`` runs in-process through
``cli.main``; the sha256 of its standard output and of every file it writes
must equal the pinned digest.  The digests are only read here; they are
rewritten by ``perfbench/make_golden.py`` in a change that alters outputs
on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nanogrid_ems.cli import main

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
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
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    blobs = {"stdout": captured.out.encode("utf-8")}
    blobs |= {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(blobs) == set(pins)
    for name, data in blobs.items():
        assert hashlib.sha256(data).hexdigest() == pins[name], name
