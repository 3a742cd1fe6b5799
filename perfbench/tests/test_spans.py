"""The tracer measures the coordinate walk the library takes.

    python3 -m pytest -q perfbench/tests
"""

import random

from common import use_checkout_library
from spans import Tracer

mw = use_checkout_library()


def _element(n, d, exps):
    ring = mw.CoeffRing.make(2)
    terms = {(0,) * n: ring.one}
    terms.update({e: ring.one for e in exps})
    return mw.WittElement(mw.TruncatedSeries(ring, n, d, terms))


def test_box_is_counted_once_per_walk():
    n, d = 2, 6
    a = _element(n, d, [(1, 0), (1, 1)])
    witt = mw.witt
    original = witt.exponents_below
    tracer = Tracer()
    tracer.install()
    try:
        mw.decompose(a)  # walks the box once, inside its witt_coordinates call
        mw.witt_coordinates(a)  # answered from the cached coordinates: no walk
    finally:
        tracer.uninstall()
    assert witt.exponents_below is original
    figures = tracer.summarize()
    assert figures["witt.coordinates.calls"] == 2
    assert figures["witt.box_exponents"] == len(original(n, d))
    assert figures["witt.support_terms"] == len(mw.witt_coordinates(a).coords) > 0


def test_other_box_users_are_not_counted():
    tracer = Tracer()
    tracer.install()
    try:
        mw.witt.random_witt_element(mw.CoeffRing.make(2), 2, 4, random.Random(0))
    finally:
        tracer.uninstall()
    assert "witt.box_exponents" not in tracer.summarize()
