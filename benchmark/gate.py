"""Correctness gate for benchmark requests.

Every request's stdout must hash to the sha256 recorded for its argv at
the seed commit (expected_sha256.json).  On the first occurrence of each
argv in a run the output also goes through checks that do not rest on
that recording:

* the rank line equals 3g - 3 + n;
* in concrete mode, the degree-1 part names exactly as many distinct
  boundary divisors as the brute-force count in tests/oracles.py;
* small JSON chern outputs, parsed back with expr_from_json_dict, equal
  chern_exp_oracle of the ch_bundle components;
* verify reports all eight gating checks passed.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import re
from pathlib import Path

EXPECTED_FILE = Path(__file__).with_name("expected_sha256.json")

# JSON chern outputs up to this many characters are re-derived through
# the exponential oracle; larger ones would make the gate cost more than
# the request.
ORACLE_MAX_CHARS = 300_000

_TEXT_ATOM = re.compile(r"xi_(?:irr|\{\d+,\{[^{}]*\}\})_\*\(1\)")
_LATEX_ATOM = re.compile(r"\\xi_\{(?:\\mathrm\{irr\}|\d+,\\\{[^{}]*\\\})\*\}\(1\)")
_JSON_RANK = re.compile(r'\A\{\s*"rank": (\d+)')


def output_hash(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()


def argv_key(argv) -> str:
    return " ".join(argv)


def load_expected() -> dict[str, str]:
    with EXPECTED_FILE.open() as fh:
        return json.load(fh)


def _options(argv) -> dict[str, str]:
    """Flag -> value for an argv whose flags all take one value."""
    return dict(zip(argv[1::2], argv[2::2]))


def _labels(opts) -> tuple[str, ...]:
    if "--labels" in opts:
        return tuple(opts["--labels"].split(","))
    return tuple(f"p{i}" for i in range(1, int(opts["--n"]) + 1))


def request_spec(argv) -> tuple[int, int, bool]:
    """(genus, marking count, concrete) of a ch or chern argv."""
    opts = _options(argv)
    if "--g" not in opts:
        return 0, 0, False
    return int(opts["--g"]), len(_labels(opts)), opts.get("--mode") == "concrete"


def _degree_one_atoms(command: str, fmt: str, out: str) -> set:
    """Distinct boundary divisors named in the degree-1 part of an output."""
    if fmt == "json":
        doc = json.loads(out)
        terms = doc["classes"][0]["terms"] if command == "chern" else doc["terms"]
        atoms = set()
        for term in terms:
            mono = term["monomial"]
            if len(mono) == 1 and mono[0]["gen"] in ("irr_push", "sep_push") \
                    and mono[0]["args"][-2:] == [0, 0]:
                atoms.add(json.dumps(mono[0]))
        return atoms
    prefix = "c_1 = " if command == "chern" else "deg 1: "
    line = next((ln for ln in out.splitlines() if ln.startswith(prefix)), "")
    pattern = _LATEX_ATOM if fmt == "latex" else _TEXT_ATOM
    return set(pattern.findall(line))


class Gate:
    """Checks request outputs; independent checks run once per argv."""

    def __init__(self, package, oracles, expected: dict[str, str]):
        self._pkg = package
        self._oracles = oracles
        self._expected = expected
        self._verdicts: dict[tuple, list[str]] = {}

    def check(self, argv, out: str) -> list[str]:
        """Problems with one request's stdout; empty when it passes."""
        want = self._expected.get(argv_key(argv))
        problems = []
        if want is None:
            problems.append("no recorded hash for this argv")
        elif output_hash(out) != want:
            problems.append("stdout hash differs from the recorded one")
        if argv not in self._verdicts:
            self._verdicts[argv] = self.independent(argv, out)
        return problems + self._verdicts[argv]

    def independent(self, argv, out: str) -> list[str]:
        command = argv[0]
        if command == "verify":
            if "8 of 8 gating checks passed" not in out.splitlines():
                return ["verify did not report 8 of 8 gating checks passed"]
            return []
        opts = _options(argv)
        g, labels = int(opts["--g"]), _labels(opts)
        fmt = opts.get("--format", "text")
        problems = []

        want_rank = 3 * g - 3 + len(labels)
        if fmt == "json":
            match = _JSON_RANK.match(out)
            rank = int(match.group(1)) if match else None
        else:
            first = out.split("\n", 1)[0]
            rank = int(first.rsplit("= ", 1)[1]) if "rank = " in first else None
        if rank is None and not (command == "ch" and fmt == "json"):
            problems.append("no rank line")
        elif rank is not None and rank != want_rank:
            problems.append(f"rank {rank} != 3g-3+n = {want_rank}")

        if opts.get("--mode") == "concrete":
            found = len(_degree_one_atoms(command, fmt, out))
            want = self._oracles.boundary_class_count(g, len(labels))
            if found != want:
                problems.append(
                    f"degree 1 names {found} boundary divisors, oracle counts {want}")

        if command == "chern" and fmt == "json" and len(out) <= ORACLE_MAX_CHARS:
            problems.extend(self._chern_oracle(opts, g, labels, out))
        return problems

    def _chern_oracle(self, opts, g, labels, out) -> list[str]:
        pkg = self._pkg
        jmax = int(opts["--jmax"])
        spec = pkg.ModuliSpec(g, labels, concrete=opts.get("--mode") == "concrete")
        ch = pkg.ch_bundle(spec, jmax, opts.get("--bundle", "cotangent"),
                           opts.get("--basis", "kappa"))
        want = pkg.chern_exp_oracle(ch.components(), jmax)
        # The package namespace binds `render` to the function, not the module.
        parse = importlib.import_module("tautchern.render").expr_from_json_dict
        got = [parse(c) for c in json.loads(out)["classes"]]
        if got != want:
            return ["chern classes differ from chern_exp_oracle"]
        return []
