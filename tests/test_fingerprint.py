"""The bitwise fingerprint script (tests/fingerprint.py) gives the same
digests on every run of the same tree."""

import fingerprint


def test_fingerprint_repeats_on_a_reduced_case_set():
    first = fingerprint.digests(reduced=True)
    assert list(first) == list(fingerprint.AREAS)
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in first.values())
    assert fingerprint.digests(reduced=True) == first
