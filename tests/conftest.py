import pytest
from hypothesis import settings

import m3cs.autodiff as ad
import m3cs.geometry as geometry

# the same examples on every run, and no example database written; each @settings keeps
# its own max_examples and deadline
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def empty_tape():
    """Each test starts on an empty autodiff tape and leaves none behind, pass or fail."""
    ad.clear_graph()
    yield
    ad.clear_graph()


@pytest.fixture
def fps_calls(monkeypatch):
    """The clouds that geometry.fps runs on during the test, one entry per call."""
    calls = []
    fps = geometry.fps

    def counted(cloud, g, start=0):
        calls.append(cloud)
        return fps(cloud, g, start)
    monkeypatch.setattr(geometry, "fps", counted)
    return calls
