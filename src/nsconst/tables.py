"""Published reference values embedded as data.

Each anchor row records the values a correct build must reproduce; the
``verify`` module compares them, at the tolerance classes below, for both
the verification command and the acceptance suite.  Values are stored
verbatim as printed; finals are exact three-significant-digit strings.

Tolerance classes:
    flat      relative 1e-4   (scan maximum, truncation constants)
    farfield  relative 1e-2   (optimizer-dependent)
    exact     string equality of the 3-digit rounded value
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class UpperAnchor:
    p: int
    n: int
    rho: float
    max_flat: float
    kmax: tuple[int, int, int]
    farfield: float
    delta: float
    final: str


@dataclass(frozen=True)
class KLowerAnchor:
    p: int
    n: int
    simple: str
    family: str
    combined: str


@dataclass(frozen=True)
class GLowerAnchor:
    p: int
    n: int
    theta: tuple[int, float, float, float]
    value: str


REL_FLAT = 1e-4
REL_FARFIELD = 1e-2

# refined upper bounds, basic inequality (d = 3, mu = 2, m = 6)
TABLE_C: tuple[UpperAnchor, ...] = (
    UpperAnchor(2, 2, 20.0, 22.0223, (9, 9, 9), 21.6447, 5.68568, "0.335"),
    UpperAnchor(3, 2, 20.0, 77.8597, (25, 23, 21), 84.8166, 17.6648, "0.643"),
    UpperAnchor(4, 2, 20.0, 113.227, (2, 2, 2), 89.5797, 57.7725, "0.831"),
    UpperAnchor(5, 2, 50.0, 263.364, (2, 1, 0), 92.5195, 65.0229, "1.16"),
    UpperAnchor(6, 2, 50.0, 702.295, (2, 1, 0), 97.2697, 225.357, "1.94"),
    UpperAnchor(7, 2, 100.0, 1884.65, (2, 1, 0), 96.4078, 376.103, "3.02"),
    UpperAnchor(8, 2, 100.0, 5018.97, (2, 1, 0), 101.904, 1345.89, "5.07"),
    UpperAnchor(9, 2, 100.0, 13205.2, (2, 1, 0), 110.191, 4870.46, "8.54"),
    UpperAnchor(10, 2, 100.0, 34334.1, (2, 1, 0), 122.389, 17786.6, "14.5"),
    UpperAnchor(3, 3, 20.0, 25.3013, (2, 1, 1), 11.2784, 0.0226087, "0.320"),
    UpperAnchor(4, 3, 20.0, 71.8198, (2, 1, 0), 44.8074, 0.0739415, "0.539"),
    UpperAnchor(5, 3, 20.0, 204.342, (2, 1, 0), 45.4808, 0.250165, "0.909"),
    UpperAnchor(6, 3, 20.0, 581.166, (2, 1, 0), 45.9450, 0.867027, "1.54"),
    UpperAnchor(7, 3, 20.0, 1636.38, (2, 1, 0), 46.3859, 3.05959, "2.58"),
    UpperAnchor(8, 3, 20.0, 4521.94, (2, 1, 0), 46.9192, 10.9488, "4.28"),
    UpperAnchor(9, 3, 20.0, 12237.3, (2, 1, 0), 47.5671, 39.6211, "7.04"),
    UpperAnchor(10, 3, 20.0, 32495.3, (2, 1, 0), 48.3602, 144.694, "11.5"),
)

# refined upper bounds, Kato inequality (d = 3, mu = 2, m = 6)
TABLE_D: tuple[UpperAnchor, ...] = (
    UpperAnchor(3, 3, 20.0, 34.9016, (9, 9, 9), 34.4741, 12.4785, "0.438"),
    UpperAnchor(4, 3, 20.0, 190.684, (23, 23, 23), 206.799, 51.5254, "1.03"),
    UpperAnchor(5, 3, 50.0, 325.352, (4, 4, 4), 309.674, 64.3690, "1.26"),
    UpperAnchor(6, 3, 50.0, 816.449, (2, 1, 0), 437.386, 230.273, "2.06"),
    UpperAnchor(7, 3, 50.0, 2356.09, (2, 1, 0), 593.730, 817.263, "3.58"),
    UpperAnchor(8, 3, 100.0, 6611.94, (2, 1, 0), 755.564, 1380.53, "5.68"),
    UpperAnchor(9, 3, 100.0, 18068.8, (2, 1, 0), 965.898, 4977.42, "9.64"),
    UpperAnchor(10, 3, 100.0, 48275.0, (2, 1, 0), 1218.84, 18110.5, "16.4"),
)

# trial-field lower bounds, basic inequality (d = 3); 3-digit rounddowns
TABLE_E: tuple[KLowerAnchor, ...] = (
    KLowerAnchor(2, 2, "0.126", "0.0809", "0.126"),
    KLowerAnchor(3, 2, "0.179", "0.147", "0.179"),
    KLowerAnchor(4, 2, "0.253", "0.264", "0.264"),
    KLowerAnchor(5, 2, "0.359", "0.463", "0.463"),
    KLowerAnchor(6, 2, "0.507", "0.793", "0.793"),
    KLowerAnchor(7, 2, "0.718", "1.33", "1.33"),
    KLowerAnchor(8, 2, "1.01", "2.20", "2.20"),
    KLowerAnchor(9, 2, "1.43", "3.60", "3.60"),
    KLowerAnchor(10, 2, "2.03", "5.83", "5.83"),
    KLowerAnchor(3, 3, "0.179", "0.125", "0.179"),
    KLowerAnchor(4, 3, "0.253", "0.232", "0.253"),
    KLowerAnchor(5, 3, "0.359", "0.418", "0.418"),
    KLowerAnchor(6, 3, "0.507", "0.732", "0.732"),
    KLowerAnchor(7, 3, "0.718", "1.25", "1.25"),
    KLowerAnchor(8, 3, "1.01", "2.10", "2.10"),
    KLowerAnchor(9, 3, "1.43", "3.48", "3.48"),
    KLowerAnchor(10, 3, "2.03", "5.69", "5.69"),
)

# trial-field lower bounds, Kato inequality (d = 3); parameter points as printed
TABLE_F: tuple[GLowerAnchor, ...] = (
    GLowerAnchor(3, 3, (1, 0.388104, 0.084359, 0.0135851), "0.121"),
    GLowerAnchor(4, 3, (1, 0.370907, 0.0628525, 0.00811876), "0.235"),
    GLowerAnchor(5, 3, (1, 0.361597, 0.0415026, 0.00365302), "0.408"),
    GLowerAnchor(6, 3, (1, 0.352601, 0.0256793, 0.00147754), "0.674"),
    GLowerAnchor(7, 3, (1, 0.348117, 0.0157944, 0.000588218), "1.08"),
    GLowerAnchor(8, 3, (1, 0.352603, 0.00994449, 0.000238632), "1.74"),
    GLowerAnchor(9, 3, (1, 0.367597, 0.00645276, 0.0000993805), "2.77"),
    GLowerAnchor(10, 3, (1, 0.392975, 0.00430116, 0.0000423667), "4.40"),
)

# combined columns of the summary tables (upper finals repeated for the
# lower-vs-upper consistency checks)
TABLE_A_UPPER: dict[tuple[int, int], str] = {(a.p, a.n): a.final for a in TABLE_C}
TABLE_B_UPPER: dict[tuple[int, int], str] = {(a.p, a.n): a.final for a in TABLE_D}

# high-precision validation anchor for the extended (5,2) run
ARB_ANCHOR_52 = {
    "p": 5,
    "n": 2,
    "rho": 50.0,
    "k": (2, 1, 0),
    "value": 263.36493191766936106,
    "abs_tol": 1e-9,
}

# envelope maxima quoted for the Kato-side constant
ENVELOPE_C_ANCHORS: dict[tuple[int, int], float] = {
    (3, 3): 14.8144,
    (4, 3): 61.1705,
    (5, 3): 229.715,
    (10, 3): 1.36660e5,
}

# far-field ingredients quoted for the (5,2), rho = 50 case
SERIES_52_ANCHORS = {
    "Q0": (1, 0, -1),
    "Q1": (0, 12, 0, -12),
    "Q2": (-6, 0, 90, 0, -84),
    "Q6": (-53, 255, 3077, -1870, -23184, 1615, 49728, 0, -29568),
    "V": 2211.24,
    "Y": 3.26693e10,
    "Q522_quartic": (14861.4, -10448.7, -20668.7),
}


def desk_rows(table: tuple[UpperAnchor, ...]) -> tuple[UpperAnchor, ...]:
    """The rows computable at desk scale (cutoff 20)."""
    return tuple(row for row in table if row.rho == 20.0)


def extended_rows(table: tuple[UpperAnchor, ...]) -> tuple[UpperAnchor, ...]:
    return tuple(row for row in table if row.rho > 20.0)
