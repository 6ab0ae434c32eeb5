"""Kostka-Foulkes polynomials of type A from the charge statistic.

Lascoux and Schützenberger (Sur une conjecture de H. O. Foulkes, CRAS 1978):
K_{lam,mu}(t) is the sum of t^charge(T) over the semistandard tableaux T of
shape lam and content mu.  Nothing here is shared with ``heckebranch.hecke``,
which sums Lusztig's q-partition function over a Weyl-orbit walk, so the
tests compare the two on type A.

A coweight a of A_r, in fundamental-coweight coordinates, is the partition
lam with lam_i = a_i + ... + a_r and r + 1 rows, the last one empty.  The
content is gamma's partition padded with full columns of r + 1 boxes to
the size of lam's, which does not change the weight; when no padding does
it, gamma is not below lam.
"""


def partition(a):
    """The partition of r + 1 rows for a coweight of A_r."""
    return tuple(sum(a[i:]) for i in range(len(a))) + (0,)


def tableaux(shape, content):
    """Semistandard tableaux of the shape and content, as tuples of rows:
    the entries i form a horizontal strip of content[i - 1] boxes added to
    the tableau of the entries below i, so no row grows past the length the
    row above it had before i."""
    def grow(rows, letter):
        if letter > len(content):
            if all(len(row) == n for row, n in zip(rows, shape)):
                yield tuple(map(tuple, rows))
            return

        def strips(r, left):
            # boxes of the strip added to rows r, r + 1, ... summing to left
            if r == len(shape):
                if not left:
                    yield ()
                return
            room = shape[r] - len(rows[r])
            if r:
                room = min(room, len(rows[r - 1]) - len(rows[r]))
            for k in range(min(room, left) + 1):
                for rest in strips(r + 1, left - k):
                    yield (k,) + rest

        for adds in strips(0, content[letter - 1]):
            yield from grow([row + [letter] * k for row, k in zip(rows, adds)],
                            letter + 1)

    return grow([[] for _ in shape], 1)


def charge(word):
    """Charge of a word whose content is a partition: the sum over its
    standard subwords, each taken by scanning leftward from the right end
    for 1, 2, 3, ... and wrapping round when a letter lies only to the
    right, which raises the index of that letter and of the letters after
    it by one."""
    word = list(word)
    total = 0
    while word:
        pos, index, picked = len(word), 0, set()
        for letter in range(1, max(word) + 1):
            left = [i for i in range(pos) if word[i] == letter]
            if left:
                pos = left[-1]
            else:
                pos = max(i for i, x in enumerate(word) if x == letter)
                index += 1
            total += index
            picked.add(pos)
        word = [x for i, x in enumerate(word) if i not in picked]
    return total


def kostka_foulkes(lam, gamma):
    """K_{lam,gamma}(t) of A_r at coweights lam and gamma dominant for the
    whole system, as a flat {v-exponent: int} map with t = v^(-2): t^j at
    -2j.  Empty when gamma is not below lam."""
    shape, content = partition(lam), partition(gamma)
    pad, extra = divmod(sum(shape) - sum(content), len(shape))
    if extra or pad < 0:
        return {}
    content = tuple(x + pad for x in content)
    out = {}
    for rows in tableaux(shape, content):
        # the reading word: rows from the bottom one up, each left to right
        e = -2 * charge([x for row in reversed(rows) for x in row])
        out[e] = out.get(e, 0) + 1
    return out
