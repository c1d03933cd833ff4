"""Symmetric-group character machinery.

The one owner of a shape's cell data: its hook-length product and its
content product prod over the cells of (z + content), summed over
weighted shapes at the points z = 0..top for a chosen top <= n, all in
integers.  On top of them: irreducible character values via the
Murnaghan-Nakayama border-strip rule, representation dimensions from
the hook-length formula, and the generating polynomial for hook-shape
characters.

Both character routes work on bitmask beta-sets (first-column hook
lengths) on an abacus, where a border strip of length r is a bead moving
r positions, with sign (-1)^(number of beads jumped).  character(lam, mu)
removes strips from lam, moving beads down: a frontier of shapes with
signed values loses one strip per class part r >= 2, largest first, and
once only 1-cycles remain each shape counts its dimension.  Only the
finished value is kept, one entry per distinct query.
_char_column(mu) adds strips to every shape at once, moving beads up,
giving a class's whole column; tests check the columns against
character(), which shares no code with them.  _shape_characters
multiplies the columns of a class tuple (hook columns when one class is
the full cycle) and streams countcore the shapes as parts, one at a
time, so the masks never leave this module and the only per-shape state
is the cached columns.
"""

from functools import lru_cache
from operator import mul

from .exactnum import factorial
from .partition import Partition


def _conjugate(parts: tuple) -> tuple:
    if not parts:
        return ()
    conj = [0] * parts[0]
    for p in parts:
        for j in range(p):
            conj[j] += 1
    return tuple(conj)


@lru_cache(maxsize=64)
def _rising_columns(n: int) -> list:
    """Entry [k][a] is the rising factorial a(a+1)...(a+k-1), for 0 <= a, k <= n."""
    columns = [[1] * (n + 1)]
    for k in range(1, n + 1):
        prev = columns[-1]
        columns.append([prev[a] * (a + k - 1) for a in range(n + 1)])
    return columns


def _content_sums(n: int, terms, top: int) -> list:
    """Sum over (shape, weight) of weight * prod_cells (z + content), at z = 0..top.

    The shapes partition n, and top <= n.  Row i of a shape has contents
    -i..lam_i-1-i, so it contributes the rising factorial (z-i)^(lam_i).
    Below the last row longer than 1 the rows have length 1 and continue
    its contents down the first column, so those rows together contribute
    one rising factorial from z-l+1: a hook costs one factor.  The product
    vanishes for 0 <= z < l (the first column's contents reach 1-l), so
    only z = l..top are evaluated, where every argument z-i is at least 1,
    and a shape with more than top rows is skipped.
    """
    rising = _rising_columns(n)
    sums = [0] * (top + 1)
    for shape, weight in terms:
        length = len(shape)
        if length > top:
            continue
        stop = top - length + 2
        last = max(length - shape.count(1) - 1, 0)
        values = rising[sum(shape[last:])][1:stop]
        for i in range(last):
            factor = rising[shape[i]][length - i : stop + length - 1 - i]
            values = list(map(mul, values, factor))
        for z, value in enumerate(values, start=length):
            sums[z] += weight * value
    return sums


@lru_cache(maxsize=None)
def _hook_product(parts: tuple) -> int:
    conj = _conjugate(parts)
    prod = 1
    for i, row_len in enumerate(parts, start=1):
        for j in range(1, row_len + 1):
            prod *= (row_len - j) + (conj[j - 1] - i) + 1
    return prod


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation indexed by lam.

    Hook-length formula: n! divided by the product of all hook lengths.
    """
    if not lam.parts:
        return 1
    return factorial(lam.n) // _hook_product(lam.parts)


# Finished character values keyed by (lam.parts, mu.parts): one entry per
# distinct query.
_char_cache: dict = {}


def _remove_strips(frontier: dict, r: int) -> dict:
    """Remove a border strip of r boxes from every shape of a frontier of beta-sets.

    Each bead moves down r places to a free slot, with sign (-1)^(beads
    jumped); shapes whose values cancel are dropped.  Beads that reach the
    bottom mark empty rows, so the abacus keeps its bead count.
    """
    shrunk: dict = {}
    for mask, value in frontier.items():
        movable = (mask & ~(mask << r)) >> r << r
        while movable:
            bead = movable & -movable
            movable ^= bead
            moved = mask ^ bead ^ (bead >> r)
            if (mask & (bead - (bead >> (r - 1)))).bit_count() & 1:
                shrunk[moved] = shrunk.get(moved, 0) - value
            else:
                shrunk[moved] = shrunk.get(moved, 0) + value
    return {mask: value for mask, value in shrunk.items() if value}


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character value of shape lam at class mu (same n >= 1).

    Murnaghan-Nakayama as a forward walk: lam's beta-set on an abacus of
    lam.length beads starts a frontier of (shape, signed value), every
    part r >= 2 of mu removes one border strip of r boxes from each shape,
    largest first, and the 1-cycles left give each remaining shape its
    dimension.
    """
    if lam.n != mu.n:
        raise ValueError(f"size mismatch: {lam} is not a partition of {mu.n}")
    if lam.n < 1:
        raise ValueError("character requires partitions of n >= 1")
    key = (lam.parts, mu.parts)
    if key not in _char_cache:
        beads = lam.length
        frontier = {sum(1 << (p + beads - i) for i, p in enumerate(lam.parts, 1)): 1}
        ones = mu.parts.count(1)
        for r in mu.parts[: mu.length - ones]:
            frontier = _remove_strips(frontier, r)
        _char_cache[key] = sum(
            value * factorial(ones) // _hook_product(_bead_parts(mask, beads))
            for mask, value in frontier.items()
        )
    return _char_cache[key]


def _bead_parts(mask: int, beads: int) -> tuple:
    """The shape whose beta-set on an abacus of the given beads is mask."""
    parts = []
    index = beads
    while mask:
        position = mask.bit_length() - 1  # the highest bead left
        index -= 1
        if position == index:
            break  # this bead and every one below it mark empty rows
        parts.append(position - index)
        mask ^= 1 << position
    return tuple(parts)


def _add_strips(column: dict, r: int) -> dict:
    """Multiply a column of bitmask beta-sets by p_r: every border strip of r boxes.

    Each bead moves up r places to a free slot, with sign (-1)^(beads
    jumped); shapes whose values cancel are deleted in place, so no copy is
    made.  The abacus must hold enough beads for the new rows.
    """
    grown: dict = {}
    for mask, value in column.items():
        slots = (mask << r) & ~mask
        while slots:
            top = slots & -slots
            slots ^= top
            moved = mask ^ top ^ (top >> r)
            if (mask & (top - (top >> (r - 1)))).bit_count() & 1:
                grown[moved] = grown.get(moved, 0) - value
            else:
                grown[moved] = grown.get(moved, 0) + value
    for mask in [mask for mask, value in grown.items() if not value]:
        del grown[mask]
    return grown


# Level k is the column of the identity class 1^k (each shape of k valued
# by its dimension) as beta-sets on an abacus of k beads.  Every column
# starts from the level of its class's 1-cycles, so one process walks the
# single boxes once, to the most 1-cycles it has seen, however many
# classes and sizes it asks for.  The levels are kept for the life of the
# process: all of them together hold about as many shapes as a few
# columns of the largest n.
_identity_levels: list = [{0: 1}]


def _identity_column(k: int) -> dict:
    """Level k of _identity_levels, walking the levels below it first if needed."""
    while len(_identity_levels) <= k:
        # One more bead, below the others, marks one more empty row.
        rebased = {mask << 1 | 1: value for mask, value in _identity_levels[-1].items()}
        _identity_levels.append(_add_strips(rebased, 1))
    return _identity_levels[k]


@lru_cache(maxsize=128)
def _char_column(class_parts: tuple) -> dict:
    """Every nonzero character value at one class, keyed by beta-set mask.

    The Murnaghan-Nakayama rule read as p_mu = sum_lam chi^lam(mu) s_lam
    (Stanley, EC2 7.17), walked forward from the empty shape without
    recursion.  A shape is a bitmask beta-set on an abacus of n beads (bit
    lam_i + n - i for rows i = 1..n; _bead_parts turns it into parts).
    Multiplying by p_r moves one bead up r places to a free slot, which
    adds a border strip of r boxes, with sign (-1)^(beads jumped).  The
    parts equal to 1 go first, as single boxes read from the shared
    identity levels, then one strip per other part.  Columns of one n share
    their keys, so a caller multiplying columns converts only the shapes it
    keeps.  The cached dict is shared by every caller and must not be
    changed.
    """
    beads = sum(class_parts)
    ones = class_parts.count(1)
    extra = beads - ones
    low = (1 << extra) - 1
    column = {mask << extra | low: value for mask, value in _identity_column(ones).items()}
    for r in reversed(class_parts[: len(class_parts) - ones]):
        column = _add_strips(column, r)
    return column


def _hook_poly(alpha_parts: tuple) -> list:
    n = sum(alpha_parts)
    # Numerator: product over parts i of (1 - (-y)^i), as int coefficients.
    num = [1]
    for i in alpha_parts:
        sign = 1 if i % 2 == 1 else -1
        prod = num + [0] * i
        for a, ca in enumerate(num):
            if ca:
                prod[a + i] += ca * sign
        num = prod
    # Exact synthetic division by (1 + y).
    quot = [0] * n
    carry = 0
    for j in range(n):
        quot[j] = num[j] - carry
        carry = quot[j]
    if num[n] != carry:
        raise ArithmeticError("hook character polynomial division not exact")
    return quot


def hook_character_poly(alpha: Partition) -> list[int]:
    """Characters of all hook shapes at class alpha, as coefficients.

    Entry j is the character of the hook with j boxes below the first row,
    for j = 0..n-1.  Computed in O(n^2) by expanding the product of
    (1 - (-y)^i) over the parts i of alpha and dividing exactly by (1+y),
    instead of running the border-strip recursion per hook.
    """
    if alpha.n < 1:
        raise ValueError("hook_character_poly requires a nonempty partition")
    return _hook_poly(alpha.parts)


def _hook_column(class_parts: tuple) -> dict:
    """The nonzero hook entries of a class's column, keyed as in _char_column.

    On n beads the hook (n-j, 1^j) is bit 2n-1-j plus the low n bits but
    bit n-j-1; its value is entry j of _hook_poly.
    """
    n = sum(class_parts)
    low = (1 << n) - 1
    return {
        1 << 2 * n - 1 - j | low ^ 1 << n - j - 1: chi
        for j, chi in enumerate(_hook_poly(class_parts))
        if chi
    }


def _shape_characters(parts_tuple: tuple, top: int):
    """Stream (shape parts, nonzero product of the classes' characters) over
    the shapes with at most top rows: from _hook_column when some class is
    the full cycle (only hooks survive), else from _char_column, multiplied
    over the shortest column's masks, one shape at a time.
    """
    n = sum(parts_tuple[0])
    source = _hook_column if (n,) in parts_tuple else _char_column
    first, *rest = sorted(map(source, parts_tuple), key=len)
    # A shape's empty rows are the lowest bits of its mask, so it has at
    # most top rows exactly when its n - top lowest bits are all set.
    low = (1 << n - top) - 1
    for mask, chi in first.items():
        if mask & low == low:
            for column in rest:
                chi *= column.get(mask, 0)
                if not chi:
                    break
            else:
                yield _bead_parts(mask, n), chi
