"""The four benchmark workloads: finite pools of CLI argv lists and their
seeded request streams.

A workload is a tuple of slots.  The variants in one slot share a shape
(command, size, mode, basis, output format, and the bundle in concrete
mode) and differ only where the cost does not: the (g, n) and the bundle
of a generic request, and whether concrete markings are named by --n or
--labels.  One pass draws one variant
per slot and shuffles the pass, so every pass costs about the same
whatever the seed.  Each workload has 3 cheap, 5 mid and 2 heavy slots,
with at least four mid slots of one shape, so the median request falls
inside one shape's latencies and the 90th percentile inside the heavy
shape's, never on a boundary between two shapes.

Sizes are chosen so a 20 s run holds a hundred requests or more
(series_verify excepted: each verify call takes about two seconds).
Inputs that take minutes are kept out of every pool; SLOW_INPUTS lists
the known ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

Argv = tuple[str, ...]

BUNDLES = ("cotangent", "tangent")
# Custom marking names for the --labels variant; --n names them p1..pn.
LABEL_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")

# Inputs measured once at the seed commit and kept out of every pool.
SLOW_INPUTS = (
    ("ch --g 0 --n 9 --degree 6 --mode concrete --basis lambda", "163 s"),
    ("chern --g 0 --n 7 --jmax 4 --mode concrete", "306 s, 56 MB of output"),
    ("chern --g 1 --n 6 --jmax 4 --mode concrete", "over 180 s"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple[tuple[Argv, ...], ...]
    # Percentile reported as req_tail_s.
    tail_percentile: int

    def pool(self) -> list[Argv]:
        """Every distinct argv the workload can send, in a fixed order."""
        return sorted({argv for slot in self.slots for argv in slot})

    def passes(self, seed: int) -> Iterator[list[Argv]]:
        """Endless seeded stream of passes; the same seed gives the same stream."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            batch = [rng.choice(slot) for slot in self.slots]
            rng.shuffle(batch)
            yield batch


def _spec_flags(g: int, n: int, names: str) -> Argv:
    if names == "labels":
        return ("--g", str(g), "--labels", ",".join(LABEL_NAMES[:n]))
    return ("--g", str(g), "--n", str(n))


def _generic(command: str, size_flag: str, size: int, basis: str, fmt: str,
             specs) -> tuple[Argv, ...]:
    """Generic-mode variants of one shape.  In generic mode the result
    does not depend on (g, n) beyond the rank line, so the specs and the
    two bundles cost the same."""
    return tuple(
        (command, *_spec_flags(g, n, "n"), size_flag, str(size),
         "--mode", "generic", "--basis", basis, "--bundle", bundle, "--format", fmt)
        for g, n in specs for bundle in BUNDLES)


def _concrete(command: str, g: int, n: int, size_flag: str, size: int,
              basis: str, bundle: str, fmt: str) -> tuple[Argv, ...]:
    """Concrete-mode variants of one shape: the two ways of naming the
    markings, which cost the same.  The bundle is part of the shape here:
    dualizing a large concrete character adds about a quarter."""
    return tuple(
        (command, *_spec_flags(g, n, names), size_flag, str(size),
         "--mode", "concrete", "--basis", basis, "--bundle", bundle, "--format", fmt)
        for names in ("n", "labels"))


_CHERN_SPECS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1))
_LAMBDA_SPECS = ((1, 1), (2, 1), (3, 2))

WORKLOADS = {
    w.name: w for w in (
        # Big TautExpr products, chern_from_ch and rendering up to 1.4 MB;
        # never touches splittings or biseries.
        Workload(
            "generic_chern",
            (_generic("chern", "--jmax", 5, "kappa", "json", _CHERN_SPECS),) * 3
            + (_generic("chern", "--jmax", 6, "kappa", "text", _CHERN_SPECS),) * 5
            + (_generic("chern", "--jmax", 7, "kappa", "json", _CHERN_SPECS),) * 2,
            90),
        # Splitting enumeration, canonical_splitting and per-atom
        # validation; small products.
        Workload(
            "concrete_boundary",
            (_concrete("chern", 1, 3, "--jmax", 3, "kappa", "cotangent", "json"),) * 3
            + (_concrete("chern", 1, 4, "--jmax", 3, "kappa", "tangent", "text"),) * 5
            + (_concrete("ch", 0, 9, "--degree", 5, "kappa", "cotangent", "latex"),) * 2,
            90),
        # The build layer used the other way from generic_chern: many small
        # additions into a growing sum through map_generators and substitute.
        Workload(
            "basis_rewrite",
            (_generic("ch", "--degree", 9, "lambda", "json", _LAMBDA_SPECS),) * 3
            + (_concrete("ch", 2, 4, "--degree", 3, "lambda", "tangent", "text"),) * 4
            + (_generic("ch", "--degree", 14, "lambda", "text", _LAMBDA_SPECS),)
            + (_concrete("ch", 1, 5, "--degree", 4, "lambda", "cotangent", "latex"),) * 2,
            90),
        # BiSeries products and inverses on top of a fixed algebra share;
        # the only workload that runs biseries.
        Workload(
            "series_verify",
            (tuple(("verify", "--order", str(k)) for k in range(44, 48)),) * 2,
            # Every verify call costs about two seconds, so a run holds
            # about ten: the 75th percentile is the highest one with a few
            # samples beyond it.
            75),
    )
}
