import numpy as np
import pytest
from hypothesis import settings

from relgrid import scorer
from relgrid.corpus import build_sentence
from relgrid.synthetic import SynthConfig, generate_corpus
from relgrid.tagging import Tag

# Property tests draw the same examples on every run and keep no example
# database on disk.
settings.register_profile("relgrid", derandomize=True, database=None)
settings.load_profile("relgrid")


def triple(head, relation, tail):
    """The row (k, hb, he, tb, te) of a head span (hb, he), a relation index k
    and a tail span (tb, te)."""
    return (relation, *head, *tail)


def make_sentence(n_tokens, triples, sid="s"):
    """The sentence of tokens t0, t1, ... and the given row tuples."""
    return build_sentence(sid, (f"t{i}" for i in range(n_tokens)), list(triples))


def corpus_items(corpus):
    """Each sentence of a corpus as its id, tokens and rows as a tuple of row
    tuples, so corpora compare with ==."""
    return [(s.id, s.tokens, tuple(map(tuple, s.triples.tolist()))) for s in corpus]


def tag_cells(tags):
    """{(i, k, j): Tag} of the tagged cells of an (L, K, L) int8 grid."""
    return {(i, k, j): Tag(int(tags[i, k, j])) for i, k, j in np.argwhere(tags).tolist()}


def as_triples(rows):
    """The set of row tuples (k, hb, he, tb, te) of (n, 5) rows."""
    return frozenset(map(tuple, rows.tolist()))


def glorot_arrays(emb_dim, num_relations, seed):
    """The scorer's three arrays by name, hidden width 3 * emb_dim:
    pair_proj, then rel_tag_emb, Glorot-uniform in
    +-sqrt(6 / (rows + cols)) from default_rng(seed), and a zero pair_bias."""
    hidden = 3 * emb_dim
    rng = np.random.default_rng(seed)

    def glorot(rows, cols):
        bound = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols))

    return {
        "pair_proj": glorot(hidden, 2 * emb_dim),
        "pair_bias": np.zeros(hidden),
        "rel_tag_emb": glorot(hidden, 4 * num_relations),
    }


def random_triples(rng, length, num_relations, max_triples=4, max_width=3):
    """Unconstrained random set of row tuples (k, hb, he, tb, te); may carry
    any overlap pattern."""
    triples = set()
    for _ in range(rng.integers(1, max_triples + 1)):
        def span():
            w = int(rng.integers(1, max_width + 1))
            start = int(rng.integers(0, max(length - w + 1, 1)))
            return start, min(start + w - 1, length - 1)

        triples.add(triple(span(), int(rng.integers(0, num_relations)), span()))
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
    nyc, nys = (0, 2), (6, 8)
    return {
        "tokens": tokens,
        "located_in": located_in,
        "contains": contains,
        "nyc": nyc,
        "nys": nys,
        "single": build_sentence("fig2a", tokens, [triple(nyc, located_in, nys)]),
        "epo_pair": build_sentence(
            "fig2ab", tokens, [triple(nyc, located_in, nys), triple(nys, contains, nyc)]
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
