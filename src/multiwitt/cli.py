"""Batch JSON command line.

Every invocation runs one job and prints a single JSON document.  Exit
codes: 0 on success, 1 on input or usage errors, 2 when a mathematical
cross-check disagrees (pairing routes, oracle comparison, selftest).
Usage errors (an unknown flag, a non-integer flag value, a value below
its minimum) exit 1 with a JSON error of kind SchemaError, like a
malformed ring descriptor or payload, or one that is not JSON at all.
argparse checks the command line; each JSON parser
(``CoeffRing.from_json_dict``, the series and coordinate readers) checks
its own input, and ``PAYLOAD_KEYS`` names the keys each command's payload
takes.  A missing or unknown key is a SchemaError.

Payloads are JSON, passed with --payload or on stdin (use ``--payload -``
or pipe; anything over a few KiB should come through stdin).  Output is
canonical: keys sorted, no whitespace, one trailing newline, so identical
jobs produce byte-identical output.

Each command imports the library modules it uses in its own branch of
``run``, so a job loads only those.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import SchemaError, TooLarge, WittError
from .ring import CoeffRing, json_int, json_object

SCHEMA_VERSION = "1"


def _need(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"command {args.command!r} needs --{name}")


def _ring(args) -> CoeffRing:
    if args.ring is None:
        raise ValueError(f"command {args.command!r} needs --ring")
    return CoeffRing.from_json_dict(_loads(args.ring, "--ring"))


# command -> (required, optional) payload keys; the other commands take none
PAYLOAD_KEYS = {
    "add": (("a", "b"), ()),
    "mul": (("a", "b"), ()),
    "neg": (("a",), ()),
    "coords": (("a",), ()),
    "decompose": (("a",), ()),
    "from-coords": (("coords",), ()),
    "ah-exp": (("x",), ("j",)),
    "pair": (("f", "g"), ()),
}


def run(args: argparse.Namespace):
    """Execute the job parsed by ``build_parser``; returns (exit_code, result_dict)."""
    cmd = args.command
    payload = _read_payload(getattr(args, "payload", None))
    json_object(payload, f"{cmd} payload", *PAYLOAD_KEYS.get(cmd, ((), ())))

    if cmd in ("add", "mul"):
        from .witt import WittElement, witt_add, witt_mul

        ring = _ring(args)
        a = WittElement.from_json_dict(ring, payload["a"])
        b = WittElement.from_json_dict(ring, payload["b"])
        out = witt_add(a, b) if cmd == "add" else witt_mul(a, b)
        return 0, {"result": out.to_json_dict()}

    if cmd == "neg":
        from .witt import WittElement, witt_neg

        ring = _ring(args)
        a = WittElement.from_json_dict(ring, payload["a"])
        return 0, {"result": witt_neg(a).to_json_dict()}

    if cmd == "coords":
        from .witt import WittElement, witt_coordinates

        ring = _ring(args)
        a = WittElement.from_json_dict(ring, payload["a"])
        return 0, {"result": witt_coordinates(a).to_json_dict()}

    if cmd == "from-coords":
        from .witt import WittCoordinates, from_coordinates

        ring = _ring(args)
        _need(args, "n", "d")
        coords = WittCoordinates.from_json_dict(ring, args.n, args.d, payload)
        return 0, {"result": from_coordinates(coords).to_json_dict()}

    if cmd == "decompose":
        from .witt import WittElement, check_family, decompose

        ring = _ring(args)
        a = WittElement.from_json_dict(ring, payload["a"])
        check_family(a.n, a.d)
        fam = decompose(a)
        comps = [
            {"nu": list(nu), "series": fam.components[nu].to_json_dict()}
            for nu in sorted(fam.components)
        ]
        return 0, {"components": comps}

    if cmd == "ah-exp":
        from .ptypical import artin_hasse_exp

        ring = _ring(args)
        _need(args, "d")
        x = ring.element(payload["x"])
        j = json_int(payload.get("j", 1), "ah-exp j")
        return 0, {"result": artin_hasse_exp(x, j, args.d).to_json_dict()}

    if cmd == "pair":
        from .duality import FormalWittElement, cartier_pair, geometric_pair
        from .series import TruncatedSeries
        from .witt import WittElement

        ring = _ring(args)
        f = FormalWittElement(TruncatedSeries.from_json_dict(ring, payload["f"]))
        base = CoeffRing(ring.field, 1)
        g = WittElement.from_json_dict(base, payload["g"])
        result = {}
        if args.mode in ("algebraic", "both"):
            va = cartier_pair(f, g, args.d)
            result["algebraic"] = ring.raw_to_coords(va.raw)
        if args.mode in ("geometric", "both"):
            m = args.m if args.m is not None else g.d - 1
            vg = geometric_pair(f, g, m)
            result["geometric"] = ring.raw_to_coords(vg.raw)
        if args.mode == "both":
            result["agree"] = result["algebraic"] == result["geometric"]
            if not result["agree"]:
                return 2, result
        return 0, result

    if cmd == "pi1":
        from .cft import pi1_truncated, witt_group_structure_brute

        _need(args, "n", "q", "d")
        structure = pi1_truncated(args.n, args.q, args.d)
        _check_json_int(structure.order, "group order")
        result = structure.to_json_dict()
        if args.oracle:
            oracle = witt_group_structure_brute(CoeffRing.make(args.q), args.n, args.d)
            result["oracle_factors"] = list(oracle.invariant_factors)
            if oracle.invariant_factors != structure.invariant_factors:
                result["agree"] = False
                return 2, result
            result["agree"] = True
        return 0, result

    if cmd == "lang-census":
        from .cft import lang_kernel_census

        _need(args, "n", "q", "s", "d")
        census = lang_kernel_census(args.n, args.q, args.s, args.d, seed=args.seed)
        return (0 if census.matches else 2), census.to_json_dict()

    if cmd == "selftest":
        from . import selftest

        summary = selftest.run_suite(args.suite, seed=args.seed)
        return (0 if summary["failed"] == 0 else 2), summary

    raise ValueError(f"unknown command {cmd!r}")


def _check_json_int(value: int, what: str) -> None:
    """TooLarge naming the size of ``value`` when json.dumps would refuse
    it: like int(), it converts no integer of more decimal digits than
    the interpreter's limit, which stays in force for JSON input."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and abs(value) >= 10**limit:
        digits = int(math.log10(abs(value))) + 1
        raise TooLarge(f"{what} has {digits} decimal digits, beyond the {limit}-digit limit of JSON output")


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not JSON: {exc}") from None


def _read_payload(value: str | None):
    text = sys.stdin.read().strip() if value == "-" else value
    return _loads(text, "payload") if text else {}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as SchemaError instead of printing usage and exiting 2."""

    def error(self, message):
        raise SchemaError(message)


def _int_at_least(minimum: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {minimum}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multiwitt", description="truncated multivariable Witt vector calculator")
    parser.add_argument(
        "--version", action="version", version=f"multiwitt 0.1.0 (schema {SCHEMA_VERSION})"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, ring=False, shape=()):
        if ring:
            sp.add_argument("--ring", help="ring descriptor JSON")
        for name in shape:
            # q is a field order; n, d, m and s count variables or degrees
            sp.add_argument(f"--{name}", type=_int_at_least(2 if name == "q" else 1))
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--payload", help="payload JSON ('-' for stdin)")

    for name in ("add", "neg", "mul", "coords", "decompose"):
        common(sub.add_parser(name), ring=True)
    common(sub.add_parser("from-coords"), ring=True, shape=("n", "d"))
    common(sub.add_parser("ah-exp"), ring=True, shape=("d",))

    pair = sub.add_parser("pair")
    common(pair, ring=True, shape=("d", "m"))
    mode = pair.add_mutually_exclusive_group()
    mode.add_argument("--algebraic", action="store_const", const="algebraic", dest="mode")
    mode.add_argument("--geometric", action="store_const", const="geometric", dest="mode")
    mode.add_argument("--both", action="store_const", const="both", dest="mode")
    pair.set_defaults(mode="both")

    pi1 = sub.add_parser("pi1")
    common(pi1, shape=("n", "q", "d"))
    pi1.add_argument("--oracle", action="store_true")

    common(sub.add_parser("lang-census"), shape=("n", "q", "s", "d"))

    st = sub.add_parser("selftest")
    st.add_argument("--suite", default="all")
    st.add_argument("--seed", type=int, default=0)
    return parser


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    # the result is serialized inside the try, so a job that fails there
    # still ends in one JSON document
    try:
        code, result = run(build_parser().parse_args(argv))
        text = _dumps(result)
    except (WittError, ValueError, KeyError, TypeError) as exc:
        code, text = 1, _dumps({"error": {"kind": type(exc).__name__, "detail": str(exc)}})
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
