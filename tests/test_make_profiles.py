"""``scripts/make_profiles.py`` writes the bundled data byte for byte."""

import importlib.util
from pathlib import Path

from nanogrid_ems.profiles import data_dir

MAKE_PROFILES = Path(__file__).resolve().parents[1] / "scripts" / "make_profiles.py"


def test_regenerates_every_bundled_file(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_profiles", MAKE_PROFILES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "DATA", tmp_path)
    assert module.main() == 0
    bundled = sorted(path.name for path in data_dir().iterdir() if path.is_file())
    assert len(bundled) == 7
    assert sorted(path.name for path in tmp_path.iterdir()) == bundled
    for name in bundled:
        assert (tmp_path / name).read_bytes() == (data_dir() / name).read_bytes()
