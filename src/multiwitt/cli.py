"""Batch JSON command line.

Every invocation runs one job and prints a single JSON document.  Exit
codes: 0 on success, 1 on input or usage errors, 2 when a mathematical
cross-check disagrees (pairing routes, oracle comparison, selftest).
Usage errors (an unknown flag, a missing required flag, a non-integer
flag value, a value below its minimum) exit 1 with a JSON error of kind
SchemaError, like a malformed ring descriptor or payload, or one that is
not JSON at all.  ``COMMANDS`` holds each command's interface: its
required and optional flags and the keys its payload takes.  argparse
checks the command line, on a parser built for the one command named
first; each JSON parser (``CoeffRing.from_json_dict``, the series and
coordinate readers) checks its own input, and a missing or unknown
payload key is a SchemaError.  ``main`` catches WittError alone: a
builtin exception that escapes is a bug.

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

from . import __version__
from .errors import SchemaError, WittError, check_budget, json_int, json_object

SCHEMA_VERSION = "1"

# command -> (required flags, optional flags, (required, optional) payload
# keys); every command takes --seed, and all but selftest take --payload.
# "mode" is pair's choice of --algebraic, --geometric or --both.
COMMANDS = {
    "add": (("ring",), (), (("a", "b"), ())),
    "neg": (("ring",), (), (("a",), ())),
    "mul": (("ring",), (), (("a", "b"), ())),
    "coords": (("ring",), (), (("a",), ())),
    "decompose": (("ring",), (), (("a",), ())),
    "from-coords": (("ring", "n", "d"), (), (("coords",), ())),
    "ah-exp": (("ring", "d"), (), (("x",), ("j",))),
    "pair": (("ring",), ("d", "m", "mode"), (("f", "g"), ())),
    "pi1": (("n", "q", "d"), ("oracle",), ((), ())),
    "lang-census": (("n", "q", "s", "d"), (), ((), ())),
    "selftest": ((), ("suite",), None),
}


def run(args: argparse.Namespace):
    """Execute the job parsed by ``parse_args``; returns (exit_code, result_dict)."""
    cmd = args.command
    required, _, keys = COMMANDS[cmd]
    payload = {} if keys is None else json_object(
        _read_payload(args.payload), f"{cmd} payload", *keys
    )
    if "ring" in required:
        from .ring import CoeffRing

        ring = CoeffRing.from_json_dict(_loads(args.ring, "--ring"))

    if cmd in ("add", "mul"):
        from .witt import WittElement, witt_add, witt_mul

        a = WittElement.from_json_dict(ring, payload["a"])
        b = WittElement.from_json_dict(ring, payload["b"])
        out = witt_add(a, b) if cmd == "add" else witt_mul(a, b)
        return 0, {"result": out.to_json_dict()}

    if cmd == "neg":
        from .witt import WittElement, witt_neg

        a = WittElement.from_json_dict(ring, payload["a"])
        return 0, {"result": witt_neg(a).to_json_dict()}

    if cmd == "coords":
        from .witt import WittElement, witt_coordinates

        a = WittElement.from_json_dict(ring, payload["a"])
        return 0, {"result": witt_coordinates(a).to_json_dict()}

    if cmd == "from-coords":
        from .witt import WittCoordinates, from_coordinates

        coords = WittCoordinates.from_json_dict(ring, args.n, args.d, payload)
        return 0, {"result": from_coordinates(coords).to_json_dict()}

    if cmd == "decompose":
        from .witt import WittElement, check_family, decompose

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

        x = ring.element(payload["x"])
        j = json_int(payload.get("j", 1), "ah-exp j")
        return 0, {"result": artin_hasse_exp(x, j, args.d).to_json_dict()}

    if cmd == "pair":
        from .duality import FormalWittElement, cartier_pair, geometric_pair
        from .series import TruncatedSeries
        from .witt import WittElement

        f = FormalWittElement(TruncatedSeries.from_json_dict(ring, payload["f"]))
        base = CoeffRing.make(ring.q, 1, ring.modulus)
        g = WittElement.from_json_dict(base, payload["g"])
        result = {}
        if args.mode in ("algebraic", "both"):
            va = cartier_pair(f, g, args.d)
            result["algebraic"] = ring.raw_to_coords(va.raw)
        if args.mode in ("geometric", "both"):
            vg = geometric_pair(f, g, args.m)
            result["geometric"] = ring.raw_to_coords(vg.raw)
        if args.mode == "both":
            result["agree"] = result["algebraic"] == result["geometric"]
        return (0 if result.get("agree", True) else 2), result

    if cmd == "pi1":
        from .cft import pi1_truncated, witt_group_structure_brute

        structure = pi1_truncated(args.n, args.q, args.d)
        _check_json_int(structure.order, "group order")
        result = structure.to_json_dict()
        if args.oracle:
            from .ring import CoeffRing

            oracle = witt_group_structure_brute(CoeffRing.make(args.q), args.n, args.d)
            result["oracle_factors"] = list(oracle.invariant_factors)
            result["agree"] = oracle.invariant_factors == structure.invariant_factors
        return (0 if result.get("agree", True) else 2), result

    if cmd == "lang-census":
        from .cft import lang_kernel_census

        census = lang_kernel_census(args.n, args.q, args.s, args.d, seed=args.seed)
        return (0 if census.matches else 2), census.to_json_dict()

    if cmd == "selftest":
        from . import selftest

        summary = selftest.run_suite(args.suite, seed=args.seed)
        return (0 if summary["failed"] == 0 else 2), summary

    raise SchemaError(f"unknown command {cmd!r}")


def _check_json_int(value: int, what: str) -> None:
    """TooLarge naming the size of ``value`` when json.dumps would refuse
    it: like int(), it converts no integer of more decimal digits than
    the interpreter's limit, which stays in force for JSON input."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        digits = int(math.log10(abs(value))) + 1
        check_budget(digits, limit, "{1} has {0} decimal digits, for JSON output", what)


def _loads(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, or too deep
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


# flag -> argparse keywords; q is a field order, n, d, m and s count
# variables or degrees
_FLAGS = {
    "ring": {"help": "ring descriptor JSON"},
    "n": {"type": _int_at_least(1)},
    "q": {"type": _int_at_least(2)},
    "s": {"type": _int_at_least(1)},
    "d": {"type": _int_at_least(1)},
    "m": {"type": _int_at_least(1)},
    "seed": {"type": int, "default": 0},
    "payload": {"help": "payload JSON ('-' for stdin)"},
    "oracle": {"action": "store_true"},
    "suite": {"default": "all"},
}


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of ``command``, built from its row of ``COMMANDS``."""
    required, optional, keys = COMMANDS[command]
    parser = _Parser(prog=f"multiwitt {command}")
    parser.set_defaults(command=command)
    flags = [name for name in required + optional if name != "mode"] + ["seed"]
    for name in flags if keys is None else flags + ["payload"]:
        parser.add_argument(f"--{name}", required=name in required, **_FLAGS[name])
    if "mode" in optional:
        mode = parser.add_mutually_exclusive_group()
        for name in ("algebraic", "geometric", "both"):
            mode.add_argument(f"--{name}", action="store_const", const=name, dest="mode")
        parser.set_defaults(mode="both")
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The job named by ``argv``, whose first argument is the command.

    Without a command first, a parser that knows only --version, --help
    and the command names prints the version or the help, or reports the
    missing or unknown command."""
    if not argv or argv[0] not in COMMANDS:
        top = _Parser(
            prog="multiwitt", description="truncated multivariable Witt vector calculator"
        )
        version = f"multiwitt {__version__} (schema {SCHEMA_VERSION})"
        top.add_argument("--version", action="version", version=version)
        top.add_argument("command", choices=COMMANDS)
        top.parse_args(argv)
        raise SchemaError("the command must be the first argument")
    return build_parser(argv[0]).parse_args(argv[1:])


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv=None) -> int:
    # the result is serialized inside the try, so a job that fails there
    # still ends in one JSON document
    try:
        code, result = run(parse_args(sys.argv[1:] if argv is None else list(argv)))
        text = _dumps(result)
    except WittError as exc:
        code, text = 1, _dumps({"error": {"kind": type(exc).__name__, "detail": str(exc)}})
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
