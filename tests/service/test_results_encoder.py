"""Results bytes from carried per-target fragments.

:class:`~repro.service.archive.ResultsEncoder` assembles ``results.json``
from a re-encoded shell plus one fragment per target, reusing the
fragments of entries it encoded last time.  ``canonical_json_bytes`` is
the oracle: the bytes must be equal for any document, and the carried
document must equal ``json.loads`` of them in key order and types.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.archive import ResultsEncoder, canonical_json_bytes

from .conftest import same_json

#: Strings the encoder must escape: quotes, backslashes, control
#: characters, newlines, non-ASCII and astral code points.
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\\n\r\t\x00\x1f/é☃\U0001d11e'), st.characters()
    ),
    max_size=8,
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.sampled_from([-0.0, 0.0, 1e-7, 1e16, 1e-320, 0.1 + 0.2, float("inf")]),
    st.floats(),
    TEXT,
)

VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)

#: Target keys: decimal prefixes (integer and string order differ) and
#: arbitrary strings.
KEYS = st.one_of(st.integers(0, 10**7).map(str), TEXT)

ENTRIES = st.dictionaries(TEXT, VALUES, max_size=5) | VALUES

SHELLS = st.dictionaries(
    st.sampled_from(["ases", "epoch", "kind", "signature_context", "summary", "zz"]),
    VALUES,
    max_size=6,
)


def document(shell, targets):
    return {**shell, "targets": targets}


def check(encoder, doc):
    """Encode ``doc``; assert the oracle bytes and the parse-identical
    carried form; return ``(carried, n_encoded)``."""
    data, carried, n_encoded = encoder.encode(doc)
    assert data == canonical_json_bytes(doc)
    assert same_json(carried, json.loads(data))
    return carried, n_encoded


ORDERING = document(
    {"kind": "census-results", "epoch": 3},
    {
        "100": {"signature": "a", "anycast": False},
        "20": {"signature": "b", "anycast": True, "replicas": []},
        "3": {},
    },
)


@settings(max_examples=150, deadline=None)
@given(shell=SHELLS, targets=st.dictionaries(KEYS, ENTRIES, max_size=12))
@example(shell={"kind": "census-results", "epoch": 3}, targets=ORDERING["targets"])
@example(shell={"summary": {"n_targets": 0}}, targets={})
@example(
    shell={"ases": {"64512": {"name": "Zürich\n\"net\"", "mean_replicas": -0.0}}},
    targets={"7": {"x": [1e-7, 1e16, 2**70, True, None, "☃"]}},
)
def test_fragment_bytes_equal_canonical_json(shell, targets):
    check(ResultsEncoder(), document(shell, targets))


@settings(max_examples=100, deadline=None)
@given(
    first=st.dictionaries(KEYS, ENTRIES, min_size=1, max_size=10),
    shell=SHELLS,
    kept=st.lists(st.booleans(), min_size=10, max_size=10),
    renamed=st.booleans(),
    fresh=st.dictionaries(KEYS, ENTRIES, max_size=4),
)
@example(
    first=ORDERING["targets"],
    shell={"epoch": 4},
    kept=[True, False, True] + [False] * 7,
    renamed=False,
    fresh={"99": {"signature": "c", "anycast": False}},
)
def test_shared_entries_reuse_their_fragments(first, shell, kept, renamed, fresh):
    """The next document copies some carried entries forward (under
    their own key, or another one) and adds fresh ones: the copied
    entries hit the memo, the fresh ones are encoded, and the bytes stay
    the oracle's."""
    encoder = ResultsEncoder()
    carried, n_encoded = check(encoder, document({"epoch": 3}, first))
    assert n_encoded == len(first)

    previous = list(carried["targets"].items())
    copied = {
        (key + "~" if renamed else key): entry
        for (key, entry), keep in zip(previous, kept)
        if keep
    }
    targets = {**fresh, **copied}
    _, n_encoded = check(encoder, document(shell, targets))
    shared = {id(entry) for _, entry in previous}
    assert n_encoded == sum(id(e) not in shared for e in targets.values())
