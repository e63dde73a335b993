"""Bundled 25-node two-voltage-level benchmark feeder.

A 69 kV subtransmission spine (nodes 1-5, four identical transposed lines)
feeds, through a 12 MVA transformer, a 24.9 kV radial feeder (nodes 6-25)
built from IEEE 34-node test feeder overhead configurations 300 and 301,
with two 9 MVA voltage regulators boosting the downstream side by 5%.  Six
polynomial loads and two constant-reactive compensators sit on the lower
level; the slack is a 100 MVA short-circuit source behind node 1.

The committed grid file data/benchmark.grid is the one definition of the
feeder: build_benchmark() parses it.  The catalog constants below are the
voltage levels, sequence data and ZIP triples that file carries, kept for
generators of larger feeders from the same catalog; load_overhead_configs()
reads the published per-mile configurations the file's config blocks
convert.
"""

from __future__ import annotations

import math
from importlib import resources

from .builders import MILE_KM
from .errors import MissingData
from .gridfile import parse_configs, parse_grid_text

P = 3

UPPER_KV = 69.0
LOWER_KV = 24.9
UPPER_VPG = UPPER_KV * 1e3 / math.sqrt(3.0)
LOWER_VPG = LOWER_KV * 1e3 / math.sqrt(3.0)

# Loads reference phase-to-ground nominal of the 24.9 kV level.
LOAD_V0_KV = LOWER_KV / math.sqrt(3.0)

# Transposed 69 kV lines: positive/zero sequence impedance (ohm/km) and
# charging susceptance (uS/km).
UPPER_SEQ = (0.071, 0.379, 3.038, 0.202, 0.884, 1.740)

# Published polynomial coefficient triples (quadratic, linear, constant);
# renormalized on ingestion because the printed values are rounded.
ZIP_LOAD_RE = (-0.067, 0.251, 0.816)
ZIP_LOAD_IM = (1.064, -0.088, 0.025)
ZIP_COMP_RE = (0.0, 0.0, 1.0)
ZIP_COMP_IM = (0.0, 0.0, 1.0)


def load_overhead_configs() -> dict:
    """IEEE 34-node overhead configurations from the bundled data file.

    The file holds the published per-mile values in the grid file's config
    grammar and is read with gridfile.parse_configs.  Returns {name: (z
    ohm/km, b uS/km)}.
    """
    ref = resources.files("polyvsi").joinpath("data", "ieee34_overhead.txt")
    if not ref.is_file():
        raise MissingData("bundled data file ieee34_overhead.txt is missing")
    configs = parse_configs(ref.read_text(encoding="utf-8"), P)
    return {name: (z / MILE_KM, b / MILE_KM) for name, (z, b) in configs.items()}


def bundled_grid_text() -> str:
    """Text of the committed benchmark grid file."""
    ref = resources.files("polyvsi").joinpath("data", "benchmark.grid")
    if not ref.is_file():
        raise MissingData("bundled benchmark.grid is missing")
    return ref.read_text(encoding="utf-8")


def build_benchmark():
    """Parse the bundled grid file; returns (GridModel, slacks, resources)."""
    return parse_grid_text(bundled_grid_text())


__all__ = [
    "build_benchmark",
    "bundled_grid_text",
    "load_overhead_configs",
]
