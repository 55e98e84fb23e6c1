import numpy as np
import pytest
from hypothesis import settings

from relgrid import scorer
from relgrid.corpus import AnnotatedSentence, Sentence, Span, Triple
from relgrid.synthetic import SynthConfig, generate_corpus
from relgrid.tagging import Tag

# Property tests draw the same examples on every run and keep no example
# database on disk.
settings.register_profile("relgrid", derandomize=True, database=None)
settings.load_profile("relgrid")


def make_sentence(n_tokens, triples, sid="s"):
    tokens = tuple(f"t{i}" for i in range(n_tokens))
    return AnnotatedSentence(
        sentence=Sentence(tokens=tokens, id=sid), triples=frozenset(triples)
    )


def tag_cells(tags):
    """{(i, k, j): Tag} of the tagged cells of an (L, K, L) int8 grid."""
    return {(i, k, j): Tag(int(tags[i, k, j])) for i, k, j in np.argwhere(tags).tolist()}


def as_triples(rows):
    """The Triple set of (n, 5) rows (k, hb, he, tb, te)."""
    return frozenset(Triple(Span(hb, he), k, Span(tb, te)) for k, hb, he, tb, te in rows.tolist())


def random_triples(rng, length, num_relations, max_triples=4, max_width=3):
    """Unconstrained random triple set; may carry any overlap pattern."""
    triples = set()
    for _ in range(rng.integers(1, max_triples + 1)):
        def span():
            w = int(rng.integers(1, max_width + 1))
            start = int(rng.integers(0, max(length - w + 1, 1)))
            return Span(start, min(start + w - 1, length - 1))

        triples.add(Triple(span(), int(rng.integers(0, num_relations)), span()))
    return triples


@pytest.fixture(scope="session")
def small_synth():
    config = SynthConfig(sentences=40, num_relations=4, seed=99)
    corpus, relations, counts = generate_corpus(config)
    return corpus, relations, counts


@pytest.fixture(scope="session")
def fig2_sentence():
    """The worked 'New York City is located in New York State' example."""
    tokens = tuple("New York City is located in New York State".split())
    located_in, contains = 0, 1
    nyc, nys = Span(0, 2), Span(6, 8)
    return {
        "tokens": tokens,
        "located_in": located_in,
        "contains": contains,
        "nyc": nyc,
        "nys": nys,
        "single": AnnotatedSentence(
            sentence=Sentence(tokens=tokens, id="fig2a"),
            triples=frozenset({Triple(nyc, located_in, nys)}),
        ),
        "epo_pair": AnnotatedSentence(
            sentence=Sentence(tokens=tokens, id="fig2ab"),
            triples=frozenset(
                {Triple(nyc, located_in, nys), Triple(nys, contains, nyc)}
            ),
        ),
    }


@pytest.fixture
def block_threads(monkeypatch):
    """Call with n to make the scorer run its blocks on n threads; each call
    gives the next multi-block call a fresh pool, shut down after use."""
    original = scorer._pool

    def close():
        if scorer._pool is not None and scorer._pool is not original:
            scorer._pool.shutdown()

    def use(threads):
        close()
        monkeypatch.setattr(scorer, "_THREADS", threads)
        monkeypatch.setattr(scorer, "_pool", None)

    yield use
    close()
