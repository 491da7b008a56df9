"""The benchmark's own model of words, trees and the quotient monoid.

Generators and checkers use this module, never the code under test, so a
later change that moves a self-check out of the library still has its
answers checked here.

A word is a string over "1" and "2" (symbol i stands for p_i, leftmost
symbol first); "" is the identity.  A tree is either a word (a leaf) or a
2-tuple (left, right).  A shape is a tree whose leaves are all None.
Every traversal is iterative, so inputs thousands of levels deep are fine.
"""

from __future__ import annotations

from itertools import permutations


def word_text(w: str) -> str:
    return "".join("p" + s for s in w) if w else "1"


class _Punct(str):
    """Punctuation on the render stack, told apart from leaf words."""


_CLOSE = _Punct(")")
_COMMA = _Punct(",")


def render(t) -> str:
    """S-expression text, as the library's ``render_sexpr`` writes it."""
    out: list[str] = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            out.append("S(")
            stack.extend((_CLOSE, x[1], _COMMA, x[0]))
        elif isinstance(x, _Punct):
            out.append(x)
        else:
            out.append(word_text(x))
    return "".join(out)


def parse(text: str):
    """Parse S-expression text made of ``S(x,y)``, words and ``1``."""
    stack: list[list] = []
    i, n = 0, len(text)
    value = None
    while True:
        if text.startswith("S(", i):
            stack.append([])
            i += 2
            continue
        if text.startswith("1", i):
            value, i = "", i + 1
        else:
            j = i
            while text.startswith("p1", j) or text.startswith("p2", j):
                j += 2
            if j == i:
                raise ValueError(f"bad tree text at offset {i}")
            value, i = text[i + 1 : j : 2], j
        while True:
            if not stack:
                if i != n:
                    raise ValueError(f"trailing text at offset {i}")
                return value
            frame = stack[-1]
            frame.append(value)
            if len(frame) == 1:
                if not text.startswith(",", i):
                    raise ValueError(f"expected ',' at offset {i}")
                i += 1
                break
            if not text.startswith(")", i):
                raise ValueError(f"expected ')' at offset {i}")
            i += 1
            stack.pop()
            value = (frame[0], frame[1])


def degree(t) -> int:
    count = 0
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, tuple):
            stack.extend(x)
        else:
            count += 1
    return count


def nesting(t) -> int:
    """Number of nested pairings on the deepest root-to-leaf path."""
    best = 0
    stack = [(t, 0)]
    while stack:
        x, d = stack.pop()
        if isinstance(x, tuple):
            stack.append((x[0], d + 1))
            stack.append((x[1], d + 1))
        elif d > best:
            best = d
    return best


def rebuild(t, leaf_fn, pair_fn):
    """Post-order rebuild: leaves mapped by leaf_fn, pairs joined by pair_fn."""
    out: list = []
    stack = [(t, False)]
    while stack:
        x, done = stack.pop()
        if not isinstance(x, tuple):
            out.append(leaf_fn(x))
        elif done:
            right = out.pop()
            left = out.pop()
            out.append(pair_fn(left, right))
        else:
            stack.append((x, True))
            stack.append((x[1], False))
            stack.append((x[0], False))
    return out[0]


def _pair(left, right):
    # The retraction rule: (p1·w, p2·w) -> w.
    if (
        isinstance(left, str)
        and isinstance(right, str)
        and left[:1] == "1"
        and right[:1] == "2"
        and left[1:] == right[1:]
    ):
        return left[1:]
    return (left, right)


def reduce(t):
    """The unique reduced tree equivalent to t."""
    return rebuild(t, lambda w: w, _pair)


def act(w: str, t):
    """Apply a word to a tree, consuming symbols right to left."""
    cur = t
    for i in range(len(w) - 1, -1, -1):
        if isinstance(cur, str):
            return w[: i + 1] + cur
        cur = cur[0] if w[i] == "1" else cur[1]
    return cur


def mul_reduced(a, b):
    """reduce(a·b) for a reduced b: each leaf w of a becomes act(w, b).

    Subtrees of a reduced tree are reduced, so retracting on the way up
    reaches the normal form.
    """
    return rebuild(a, lambda w: act(w, b), _pair)


def mul_tree(a, b):
    """a·b in the tree monoid, without reduction."""
    return rebuild(a, lambda w: act(w, b), lambda l, r: (l, r))


def power_tree(a, n: int):
    out = ""
    for _ in range(n):
        out = mul_tree(out, a)
    return out


def leaf_listing(t) -> list[tuple[str, str]]:
    """(path word, color) per leaf, left to right.

    The path word's rightmost symbol is the first step from the root.
    """
    out: list[tuple[str, str]] = []
    stack = [(t, "")]
    while stack:
        x, path = stack.pop()
        if isinstance(x, tuple):
            stack.append((x[1], "2" + path))
            stack.append((x[0], "1" + path))
        else:
            out.append((path, x))
    return out


def beta_text(t) -> str:
    """The branch set of t as ``cpmonoid beta`` prints it."""
    terms = sorted(leaf_listing(t), key=lambda pc: (len(pc[0]), pc[0], len(pc[1]), pc[1]))
    return "{" + ", ".join(f"{word_text(p)}*{word_text(c)}" for p, c in terms) + "}"


def expand(t, extra: int, rng):
    """Add ``extra`` leaves by expansion moves w -> (p1·w, p2·w).

    The budget is split at random between the children of each pair, so
    the expanded regions are random binary trees of logarithmic depth.
    """
    out: list = []
    stack = [(t, extra, False)]
    while stack:
        x, budget, done = stack.pop()
        if done:
            right = out.pop()
            left = out.pop()
            out.append((left, right))
            continue
        if isinstance(x, str):
            if budget == 0:
                out.append(x)
                continue
            budget -= 1
            x = ("1" + x, "2" + x)
        k = rng.randint(0, budget)
        stack.append((x, budget, True))
        stack.append((x[1], budget - k, False))
        stack.append((x[0], k, False))
    return out[0]


def random_word(rng, max_len: int) -> str:
    return "".join(rng.choice("12") for _ in range(rng.randint(0, max_len)))


def random_shape(rng, leaves: int):
    """A shape with the given number of leaves, splits drawn uniformly."""
    out: list = []
    stack: list = [(leaves, False)]
    while stack:
        n, done = stack.pop()
        if done:
            right = out.pop()
            left = out.pop()
            out.append((left, right))
        elif n == 1:
            out.append(None)
        else:
            k = rng.randint(1, n - 1)
            stack.append((n, True))
            stack.append((n - k, False))
            stack.append((k, False))
    return out[0]


def fill(shape, colors):
    """The tree of the shape with its leaves colored left to right."""
    it = iter(colors)
    return rebuild(shape, lambda _: next(it), lambda l, r: (l, r))


def random_reduced_tree(rng, leaves: int, max_color_len: int = 3):
    shape = random_shape(rng, leaves)
    return reduce(fill(shape, [random_word(rng, max_color_len) for _ in range(leaves)]))


def all_shapes(d: int) -> list:
    if d == 1:
        return [None]
    return [(l, r) for k in range(1, d) for l in all_shapes(k) for r in all_shapes(d - k)]


def taus(shape) -> list[str]:
    """Path words of the shape's leaves, left to right."""
    return [p for p, _ in leaf_listing(fill(shape, [""] * degree(shape)))]


def perm_tree(shape, g) -> tuple:
    """Unreduced image of the self-map g (0-based) of the shape's leaves.

    Leaf i is colored by the path word of leaf g[i].  Its reduced form is
    the image of g under the paper's injective antihomomorphism, so the
    n-th power of the element is the image of g composed n times and its
    multiplicative order is the order of g.
    """
    t = taus(shape)
    return fill(shape, [t[v] for v in g])


def perm_power(g, n: int) -> tuple[int, ...]:
    out = tuple(range(len(g)))
    for _ in range(n):
        out = tuple(g[v] for v in out)
    return out


def perm_order(g) -> int:
    n, cur, ident = 1, tuple(g), tuple(range(len(g)))
    while cur != ident:
        cur = tuple(g[v] for v in cur)
        n += 1
    return n


def perm_inverse(g) -> tuple[int, ...]:
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[v] = i
    return tuple(out)


def gen_units_text(depth: int, max_degree: int) -> str:
    """What ``cpmonoid gen-units`` prints: distinct permutation images.

    Sorted by (degree, text), as the command documents.
    """
    found: set[tuple[int, str]] = set()
    for d in range(1, depth + 1):
        for shape in all_shapes(d):
            for g in permutations(range(d)):
                image = reduce(perm_tree(shape, g))
                if degree(image) <= max_degree:
                    found.add((degree(image), render(image)))
    return "".join(text + "\n" for _, text in sorted(found))


def check_embedding(images: dict[str, str], labels, identity: int, table, pairs) -> bool:
    """An injective homomorphism, checked on the given (i, j) index pairs.

    ``images`` maps each label to the S-expression of its image, which
    must be reduced.
    """
    if set(images) != set(labels):
        return False
    if images[labels[identity]] != "1" or len(set(images.values())) != len(labels):
        return False
    trees = [parse(images[label]) for label in labels]
    if any(reduce(t) != t for t in trees):
        return False
    return all(
        mul_reduced(trees[i], trees[j]) == trees[table[i][j]] for i, j in pairs
    )
