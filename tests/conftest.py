import pytest

from corpus import surface_corpus
from mchern.surface import SurfaceModel


@pytest.fixture(scope="session")
def corpus_programs():
    return surface_corpus(max_events=6, limit=500)


@pytest.fixture(scope="session")
def corpus_surfaces(corpus_programs):
    return [SurfaceModel(events) for events in corpus_programs]
