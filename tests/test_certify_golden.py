import json

from make_certify_golden import GOLDEN, corpus, certify_digest


def test_certify_output_matches_golden_digests():
    want = json.loads(GOLDEN.read_text())
    cases = corpus()
    assert sorted(name for name, _, _ in cases) == sorted(want)
    changed = [
        name for name, g, realize in cases if certify_digest(g, realize) != want[name]
    ]
    assert changed == []
