import pytest

from isobenefit import io as scene_io


@pytest.fixture(autouse=True)
def cold_scene_cache(monkeypatch):
    # load_scene keeps the last scene it returned; each test starts without
    # it, so a test that counts the calls of a load sees a cold one whatever
    # test ran before
    monkeypatch.setattr(scene_io, "_last_scene", None)
