"""Reference computations the benchmark checks surfmc against.

Nothing here calls into surfmc.  Frames are the package's two integer
bit-planes (bit q set = qubit q carries an X or a Z component); the only
thing taken from the package is ``CodeLayout.qubit_coords``, the grid
coordinate of each bit.  Checks, logical operators, boundary distances,
pairing weights and stabilizer products are all derived here from those
coordinates and the layout conventions in the package README.
"""

from __future__ import annotations

import math

import numpy as np

LABELS = ("I", "X", "Z", "Y")  # class label from (bit_h << 1) | bit_v


class RefCode:
    """Distance-L planar code rebuilt from qubit coordinates.

    Z-checks sit at (odd r, even c) and see the x-plane; X-checks sit at
    (even r, odd c) and see the z-plane.  Each check covers its grid
    neighbours (r±1, c), (r, c±1) that exist.  Checks of one kind are
    numbered row-major, which is the order syndromes list them in.
    """

    def __init__(self, L: int, qubit_coords):
        self.L = L
        self.n_qubits = len(qubit_coords)
        index = {tuple(rc): q for q, rc in enumerate(qubit_coords)}
        span = 2 * L - 2

        def support(r: int, c: int) -> int:
            mask = 0
            for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                q = index.get((rr, cc))
                if q is not None:
                    mask |= 1 << q
            return mask

        self.z_checks = [((r, c), support(r, c))
                         for r in range(1, span, 2) for c in range(0, span + 1, 2)]
        self.x_checks = [((r, c), support(r, c))
                         for r in range(0, span + 1, 2) for c in range(1, span, 2)]
        self.column0 = sum(1 << q for rc, q in index.items() if rc[1] == 0)
        self.row0 = sum(1 << q for rc, q in index.items() if rc[0] == 0)

    def syndrome(self, x: int, z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(violated Z-check numbers, violated X-check numbers)."""
        p = tuple(i for i, (_, m) in enumerate(self.z_checks) if (x & m).bit_count() & 1)
        s = tuple(i for i, (_, m) in enumerate(self.x_checks) if (z & m).bit_count() & 1)
        return p, s

    def class_label(self, x: int, z: int) -> str:
        """Logical class: Z-parity on column 0 and X-parity on row 0."""
        bit_h = (z & self.column0).bit_count() & 1
        bit_v = (x & self.row0).bit_count() & 1
        return LABELS[(bit_h << 1) | bit_v]

    def pairing_problem(self, anyons, species: str) -> tuple[list[list[int]], list[int]]:
        """Pair weights and nearest-boundary weights of one species' anyons.

        p-anyons (violated Z-checks) exit through the virtual rows -1 and
        2L-1, s-anyons through the virtual columns; a pair costs the number
        of qubits on a shortest grid path between the two checks.
        """
        checks = self.z_checks if species == "p" else self.x_checks
        coords = [checks[a][0] for a in anyons]
        edge = 2 * self.L - 1
        axis = 0 if species == "p" else 1
        boundary = [min((rc[axis] + 1) // 2, (edge - rc[axis]) // 2) for rc in coords]
        pair = [[(abs(a[0] - b[0]) + abs(a[1] - b[1])) // 2 for b in coords] for a in coords]
        return pair, boundary

    def stabilizer_generators(self) -> list[tuple[int, bool]]:
        """(mask, acts on the x-plane) for every check, Z-checks first."""
        return [(m, False) for _, m in self.z_checks] + [(m, True) for _, m in self.x_checks]


def min_pairing_weight(pair: list[list[int]], boundary: list[int]) -> int:
    """Minimum total weight when every anyon is paired with another anyon or
    with its nearest absorbing boundary (subset dynamic program, O(2^n n))."""
    n = len(boundary)
    best = [0] * (1 << n)
    for subset in range(1, 1 << n):
        i = (subset & -subset).bit_length() - 1
        rest = subset & ~(1 << i)
        value = boundary[i] + best[rest]
        row = pair[i]
        others = rest
        while others:
            j = (others & -others).bit_length() - 1
            v = row[j] + best[rest & ~(1 << j)]
            if v < value:
                value = v
            others &= others - 1
        best[subset] = value
    return best[-1]


class DirectOrbit:
    """All 2^m products of the m stabilizer generators, listed directly.

    Product k multiplies exactly the generators whose bit is set in k; no
    Gray-code walk and no incremental weight update.  Bit-planes must fit in
    64 bits (L <= 5).
    """

    def __init__(self, code: RefCode):
        if code.n_qubits > 64:
            raise ValueError("direct enumeration needs at most 64 qubits")
        gens = code.stabilizer_generators()
        k = np.arange(1 << len(gens), dtype=np.uint64)
        self.px = np.zeros(len(k), dtype=np.uint64)
        self.pz = np.zeros(len(k), dtype=np.uint64)
        for g, (mask, x_plane) in enumerate(gens):
            picked = ((k >> np.uint64(g)) & np.uint64(1)).astype(bool)
            plane = self.px if x_plane else self.pz
            plane[picked] ^= np.uint64(mask)
        self.n_qubits = code.n_qubits

    def histogram(self, x: int, z: int) -> dict[int, int]:
        """Weight histogram (sigma-y counts once) of frame * every product."""
        weights = np.bitwise_count((self.px ^ np.uint64(x)) | (self.pz ^ np.uint64(z)))
        counts = np.bincount(weights, minlength=self.n_qubits + 1)
        return {w: int(c) for w, c in enumerate(counts) if c}


def log_partition(histogram: dict[int, int], beta: float) -> float:
    """log sum over the orbit of exp(-beta * weight)."""
    terms = [math.log(c) - beta * w for w, c in histogram.items()]
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def depolarizing_beta(p: float) -> float:
    """Inverse temperature at which exp(-beta n) is the relative probability
    of an n-error chain under depolarizing noise of rate p."""
    return -math.log((p / 3.0) / (1.0 - p))


def mcnemar_worse_pvalue(candidate_only: int, reference_only: int) -> float:
    """Exact one-sided McNemar p-value for "the candidate fails more often".

    ``candidate_only`` counts paired trials only the candidate failed,
    ``reference_only`` those only the reference failed.
    """
    n = candidate_only + reference_only
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(candidate_only, n + 1)) / 2.0 ** n


def wilson(failures: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval of a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z / denom * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)

