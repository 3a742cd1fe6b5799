"""Mutated jobs for every CLI command: main never raises, always prints one
JSON document, and rejects every value of the wrong JSON type (an integer,
boolean or list replaced by another type) and every key an object does
not take with exit 1.  Every exit-1 error kind is a WittError subclass
from ``multiwitt.errors``.

Each job is a valid one (flags, ring descriptor, payload) with a single
mutation applied.  Integers stay small, except that a field order --q or
an extension degree --s too large for the ring tables must exit 1 with
TooLarge at once, as must ``pi1`` and ``lang-census`` on a shape --n,
--d up to 10^9 whose group is too large, and ``ah-exp`` at any --d and j
up to 10^9, like ``pair`` at any --d and --m up to 10^9, must end in
exit 0 or 1 with one JSON document.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from multiwitt import errors
from multiwitt.cli import main
from multiwitt.errors import EXPONENT_BITS_LIMIT

F2 = {"p": 2, "e": 1, "modulus": [0, 1], "nil": 1}
F4E2 = {"p": 2, "e": 2, "modulus": [1, 1, 1], "nil": 2}
R22 = {"p": 2, "e": 1, "modulus": [0, 1], "nil": 2}


def series(n, d, terms, exact=False):
    return {"n": n, "d": d, "exact": exact, "terms": [{"exp": e, "c": c} for e, c in terms]}


A = series(1, 4, [([0], [[1]]), ([1], [[1]]), ([3], [[1]])])
B = series(1, 4, [([0], [[1]]), ([2], [[1]])])
A4 = series(1, 3, [([0], [[1, 0], [0, 0]]), ([1], [[0, 1], [1, 0]])])
A2 = series(2, 4, [([0, 0], [[1]]), ([1, 1], [[1]]), ([2, 0], [[1]])])

# command -> (bare flags, integer flags, ring descriptor, payload)
JOBS = {
    "add": ([], {}, F2, {"a": A, "b": B}),
    "neg": ([], {}, F4E2, {"a": A4}),
    "mul": ([], {}, F2, {"a": A, "b": B}),
    "coords": ([], {}, F4E2, {"a": A4}),
    "decompose": ([], {}, F2, {"a": A2}),
    "from-coords": ([], {"n": 1, "d": 4}, F2, {"coords": [{"exp": [1], "r": [[1]]}]}),
    "ah-exp": ([], {"d": 4}, F4E2, {"x": [[0, 0], [1, 0]], "j": 1}),
    "pair": (
        ["--both"],
        {"d": 4},
        R22,
        {
            "f": series(1, 2, [([0], [[1], [0]]), ([1], [[0], [1]])], exact=True),
            "g": series(1, 5, [([0], [[1]]), ([1], [[1]])]),
        },
    ),
    "pi1": ([], {"n": 1, "q": 2, "d": 3}, None, None),
    "lang-census": ([], {"n": 1, "q": 2, "s": 2, "d": 3}, None, None),
    "selftest": (["--suite", "ring"], {"seed": 0}, None, None),
}


def argv_of(command, doc):
    bare, _, _, _ = JOBS[command]
    argv = [command] + bare
    for name, value in doc["flags"].items():
        argv += [f"--{name}", json.dumps(value)]
    if "ring" in doc:
        argv += ["--ring", json.dumps(doc["ring"])]
    if "payload" in doc:
        argv += ["--payload", json.dumps(doc["payload"])]
    return argv


def job_doc(command):
    _, flags, ring, payload = JOBS[command]
    doc = {"flags": dict(flags)}
    if ring is not None:
        doc.update(ring=ring, payload=payload)
    return json.loads(json.dumps(doc))


def leaves(node, path=()):
    """Paths of every int or bool inside a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    elif isinstance(node, int):
        yield path


def lists(node, path=()):
    """Paths of every list inside a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from lists(value, path + (key,))
    elif isinstance(node, list):
        yield path
        for i, value in enumerate(node):
            yield from lists(value, path + (i,))


def objects(node, path=()):
    """Paths of every object below the top level."""
    if isinstance(node, dict):
        if path:
            yield path
        for key, value in node.items():
            yield from objects(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from objects(value, path + (i,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(doc, path, value):
    at(doc, path[:-1])[path[-1]] = value


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1, text
    doc = json.loads(text)
    assert isinstance(doc, dict)
    if code == 1:
        assert issubclass(getattr(errors, doc["error"]["kind"]), errors.WittError), text
    return code, text


NOT_INT = [1.0, 0.5, "1", True, False, None, [], [1], {}, {"a": 1}]
NOT_BOOL = [0, 1, "false", None, [], {}]
NOT_LIST = [5, 0, 1.0, "[1]", True, None, {}, {"a": [1]}]
FUZZ = settings(max_examples=150, derandomize=True, database=None, deadline=None)


@FUZZ
@given(st.sampled_from(sorted(JOBS)), st.data())
def test_wrong_json_type_exits_1(command, data):
    doc = job_doc(command)
    path = data.draw(st.sampled_from(list(leaves(doc)) + list(lists(doc))))
    old = at(doc, path)
    if isinstance(old, list):
        new = data.draw(st.sampled_from(NOT_LIST))
    else:
        new = data.draw(st.sampled_from(NOT_BOOL if isinstance(old, bool) else NOT_INT))
    put(doc, path, new)
    code, text = run_main(argv_of(command, doc))
    assert code == 1, (path, new, text)


@FUZZ
@given(st.sampled_from(sorted(JOBS)), st.data())
def test_dropped_added_or_nonpositive_value_handled(command, data):
    doc = job_doc(command)
    # every seed is valid, and a valid selftest job runs a whole suite
    kinds = ["drop", "add"] + ([] if command == "selftest" else ["nonpositive"])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "nonpositive":
        ints = [p for p in leaves(doc) if not isinstance(at(doc, p), bool)]
        put(doc, data.draw(st.sampled_from(ints)), data.draw(st.sampled_from([0, -1, -3])))
    else:
        path = data.draw(st.sampled_from(list(objects(doc))))
        target = at(doc, path)
        if kind == "drop" and target:
            del target[data.draw(st.sampled_from(sorted(target)))]
        else:
            key = data.draw(st.sampled_from(["x", "exact", "nil", "j", "terms"]))
            # every valid job lists all the optional keys it may take
            unknown = key not in target
            target[key] = 1
            code, text = run_main(argv_of(command, doc))
            assert code == 1 if unknown else code in (0, 1), (path, key, text)
            return
    code, _ = run_main(argv_of(command, doc))
    assert code in (0, 1)


# flags that name a field too large for the ring tables: q > 2048, q^s > 2048
LARGE = {
    "q": st.integers(2049, 10**40),
    "s": st.integers(12, 10**9),
}


@settings(FUZZ, max_examples=40)
@given(st.sampled_from([("pi1", "q"), ("lang-census", "q"), ("lang-census", "s")]), st.data())
def test_large_field_exits_1_with_too_large(job, data):
    command, flag = job
    doc = job_doc(command)
    doc["flags"][flag] = data.draw(LARGE[flag])
    code, text = run_main(argv_of(command, doc))
    assert code == 1 and json.loads(text)["error"]["kind"] == "TooLarge", text


# (n, d) with more than 10^5 exponents below d, past every cft limit at q = 2
LARGE_SHAPE = st.one_of(
    st.tuples(st.integers(20, 10**9), st.integers(20, 10**9)),
    st.tuples(st.integers(1, 10**9), st.integers(10**5 + 2, 10**9)),
    st.tuples(st.integers(10**5 + 1, 10**9), st.integers(2, 10**9)),
)


@settings(FUZZ, max_examples=40)
@given(st.sampled_from([("pi1",), ("pi1", "--oracle"), ("lang-census",)]), LARGE_SHAPE)
def test_large_shape_exits_1_with_too_large(job, shape):
    command = job[0]
    doc = job_doc(command)
    doc["flags"]["n"], doc["flags"]["d"] = shape
    code, text = run_main(argv_of(command, doc) + list(job[1:]))
    assert code == 1 and json.loads(text)["error"]["kind"] == "TooLarge", text


@settings(FUZZ, max_examples=25)
@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_large_ah_exp_exits_0_or_1(d, j):
    doc = job_doc("ah-exp")
    doc["flags"]["d"] = d
    doc["payload"]["j"] = j
    code, text = run_main(argv_of("ah-exp", doc))
    assert code in (0, 1), text


@settings(FUZZ, max_examples=25)
@given(
    st.sampled_from(["--both", "--algebraic", "--geometric"]),
    st.integers(1, 10**9),
    st.integers(1, 10**9),
)
def test_large_pair_exits_0_or_1(mode, d, m):
    doc = job_doc("pair")
    doc["flags"].update(d=d, m=m)
    argv = argv_of("pair", doc)
    argv[1] = mode
    code, text = run_main(argv)
    assert code in (0, 1), text


# ``from-coords`` at any --n and --d up to 10^9, with and without
# coordinates, ends in exit 0 or 1 with one JSON document, and in TooLarge
# at once on a shape whose exponents are past errors.EXPONENT_BITS_LIMIT
@settings(FUZZ, max_examples=40)
@given(st.integers(1, 10**9), st.integers(1, 10**9), st.booleans())
def test_large_from_coords_exits_0_or_1(n, d, empty):
    doc = job_doc("from-coords")
    doc["flags"].update(n=n, d=d)
    if empty:
        doc["payload"]["coords"] = []
    code, text = run_main(argv_of("from-coords", doc))
    assert code in (0, 1), text
    if n * d.bit_length() > EXPONENT_BITS_LIMIT:
        assert code == 1 and json.loads(text)["error"]["kind"] == "TooLarge", text
