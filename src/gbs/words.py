"""Word problem for fundamental groups of labelled graphs.

Elements are based path words: alternating vertex powers and edge
traversals forming a loop at a base vertex.  A pinch  T_e a^x T_e~  with
the far label dividing x collapses to a vertex power at the near end;
iterating pinches decides the word problem (Britton / normal form for
graphs of groups).  `reduce_syllables` is the one kernel: a single stack
pass that checks each syllable where the path stands, then pinches it
against the stack top, so a malformed word is refused at its first fault.

Presentation letters (vertex generators ``a(v)``, stable letters ``t(eps)``
for non-tree edges) convert to and from path words through a spanning tree.
The stable letter of edge eps with data ((v, w), (lv, lw)) satisfies
``t a(v)^lv t^-1 = a(w)^lw``.

A letter may also be a shared subword power ``("w", word, k)``, making the
word a straight-line program (Lohrey, *The Compressed Word Problem for
Groups*, 2014).  Letter words multiply in the free group, so
``expand_letters`` gives exactly the word built without sharing.
"""

from dataclasses import dataclass
from fractions import Fraction

from .arith import gcd
from .errors import InputError, MalformedWordError, WordCapError
from .graphs import LabelledGraph, spanning_tree
from .lattice import RationalMultGroup

# syllables: ("v", vertex, exponent) | ("e", edge, end)
# letters:   ("v", vertex, exponent) | ("t", edge, exponent) | ("w", word, exponent)

WORD_CAP = 10**7  # syllables or letters one word may be written out to


def check_word_cap(size: int):
    """Raise WordCapError before a word of `size` syllables is allocated."""
    if size > WORD_CAP:
        raise WordCapError(f"a word of {size} syllables exceeds the expansion cap {WORD_CAP}")


@dataclass(slots=True, unsafe_hash=True)
class PathWord:
    base: str
    syllables: tuple

    def __mul__(self, other: "PathWord") -> "PathWord":
        if self.base != other.base:
            raise MalformedWordError("cannot multiply words at different base vertices")
        return PathWord(self.base, self.syllables + other.syllables)

    def inverse(self) -> "PathWord":
        return PathWord(self.base, syllables_inverse(self.syllables))


def syllables_inverse(syllables) -> tuple:
    """The reversed path: vertex powers negated, each traversal from its other end.
    Built as a list: tuple() over a generator grows the tuple by resizing,
    which left peak memory 5% higher on long runs of word queries."""
    return tuple([("v", s[1], -s[2]) if s[0] == "v" else ("e", s[1], 1 - s[2]) for s in reversed(syllables)])


@dataclass(slots=True, unsafe_hash=True)
class NormalForm:
    word: PathWord
    trivial: bool


def britton_reduce(g: LabelledGraph, w: PathWord) -> NormalForm:
    """Eliminate pinches until none applies; trivial iff nothing is left."""
    if w.base not in g.vertices:
        raise MalformedWordError(f"unknown base vertex {w.base}")
    stack = reduce_syllables(g.edges, w.syllables, w.base)
    return NormalForm(PathWord(w.base, stack), not stack)


def reduce_syllables(edges, syllables, base, stack: list | None = None, end: str | None = None) -> tuple:
    """The pinch-free syllables of a loop at base, in one stack pass that
    checks each syllable where the path stands (MalformedWordError at the
    first that does not fit) before it reduces it.  The stack (empty, or a
    reduced path from `end` to base) has no two vertex powers in a row, so
    a vertex power on top stands at pos and a traversal under it ends there."""
    stack = [] if stack is None else stack
    pos = base
    for syl in syllables:
        kind, name, x = syl
        if kind == "v":
            if name != pos:
                raise MalformedWordError(f"vertex power at {name} while at {pos}")
            if x:
                if stack and stack[-1][0] == "v":
                    x += stack.pop()[2]
                    if x:
                        stack.append(("v", pos, x))
                else:
                    stack.append(syl)
            continue
        if kind != "e":
            raise MalformedWordError(f"bad syllable {syl!r}")
        ed = edges.get(name)
        if ed is None:
            raise MalformedWordError(f"unknown edge {name}")
        if x == 0:
            start, pos_next = ed.endpoints
        elif x == 1:
            pos_next, start = ed.endpoints
        else:
            raise MalformedWordError(f"traversal of {name} has end {x!r}, not 0 or 1")
        if start != pos:
            raise MalformedWordError(f"traversal ({name}, {x}) does not start at {pos}")
        pos = pos_next
        if stack:
            top = stack[-1]
            if top[0] == "e":
                if top[1] == name and top[2] != x:  # a free cancellation: the pinch with mid 0
                    stack.pop()
                    continue
            elif len(stack) > 1 and stack[-2][1] == name and stack[-2][2] != x and top[2] % ed.labels[x] == 0:
                del stack[-2:]  # the pinch T a^mid T~, its far label ed.labels[x] dividing mid
                mid = top[2] // ed.labels[x] * ed.labels[1 - x]
                if stack and stack[-1][0] == "v":
                    mid += stack.pop()[2]
                if mid:
                    stack.append(("v", pos, mid))
                continue
        stack.append(syl)
    if pos != (base if end is None else end):
        raise MalformedWordError("word is not a loop at its base vertex")
    return tuple(stack)


def equal(g: LabelledGraph, w1: PathWord, w2: PathWord) -> bool:
    return britton_reduce(g, w1 * w2.inverse()).trivial


def is_elliptic(g: LabelledGraph, w: PathWord) -> bool:
    """True iff w is conjugate into a vertex group.  A reduced word traces the
    geodesic from x to wx in the Bass-Serre tree; for elliptic w it runs to
    Fix(w) and back, its midpoint in Fix(w) (Serre, Trees, I.6), so turned at
    its middle traversal it fixes its base and reduces to a vertex power.  A
    hyperbolic w has an odd number of traversals, or keeps two when turned."""
    turned = middle_turn(g.edges, britton_reduce(g, w).word.syllables, w.base)
    return turned is not None and len(turned[1]) < 2


def middle_turn(edges, syls, base) -> tuple[int, tuple] | None:
    """(h, the reduced syls[h:] + syls[:h], a loop at the origin of traversal h)
    for reduced syls, a loop at base, h the index of its middle traversal (0
    with none); None for an odd number of traversals.  Elliptic syls turn to
    at most one vertex power a(u)^x, and are then syls[:h] a(u)^x syls[:h]^-1."""
    at = [i for i, s in enumerate(syls) if s[0] == "e"]
    if len(at) % 2:
        return None
    if not at:
        return 0, syls
    h = at[len(at) // 2]
    _, name, end = syls[h]
    return h, reduce_syllables(edges, syls[:h], base, list(syls[h:]), edges[name].endpoints[end])


def modulus(g: LabelledGraph, w: PathWord) -> Fraction:
    """Product of far-label / near-label over the traversals of w, read off
    its normal form: a pinch's two traversals contribute ratios that cancel."""
    out = Fraction(1)
    for syl in britton_reduce(g, w).word.syllables:
        if syl[0] == "e":
            labels = g.edges[syl[1]].labels
            out *= Fraction(labels[1 - syl[2]], labels[syl[2]])
    return out


# -- presentations and letter words ----------------------------------------


def tree_walk(g: LabelledGraph, tree, root: str) -> dict[str, tuple]:
    """Each vertex but root mapped to (its tree parent, the edge, the parent's
    end), parents first: a tree path is unique, so the tree's edges give it."""
    adj: dict = {}
    for e in tree:
        a, b = g.edges[e].endpoints
        adj.setdefault(a, []).append((e, 0, b))
        adj.setdefault(b, []).append((e, 1, a))
    up, stack = {}, [root]
    while stack:
        v = stack.pop()
        for e, end, w in adj.get(v, ()):
            if w not in up and w != root:
                up[w] = (v, e, end)
                stack.append(w)
    return up


class Presentation:
    """Standard presentation attached to (graph, spanning tree, base); `up` is
    tree_walk from the base; tree paths, generators and relations built on first use."""

    def __init__(self, g: LabelledGraph, tree: frozenset[str] | None = None, base: str | None = None):
        self.graph = g
        self.tree = frozenset(tree) if tree is not None else spanning_tree(g)
        if len(self.tree) != len(g.vertices) - 1 or any(e not in g.edges for e in self.tree):
            raise InputError("not a spanning tree")
        self.base = base if base is not None else g.sorted_vertices()[0]
        if self.base not in g.vertices:
            raise InputError(f"unknown base vertex {self.base}")
        self.up = tree_walk(g, self.tree, self.base)
        if len(self.up) != len(self.tree):
            raise InputError("spanning tree does not span")
        self._paths: tuple | None = None
        self._reduced: dict = {}
        self._generators: tuple | None = None
        self._relations: tuple | None = None

    def tree_paths(self) -> tuple[dict, dict]:
        """Tree paths from the base to each vertex, and their inverses."""
        if self._paths is None:
            geo, inv = {self.base: ()}, {self.base: ()}
            for w, (v, e, end) in self.up.items():
                geo[w], inv[w] = geo[v] + (("e", e, end),), (("e", e, 1 - end),) + inv[v]
            self._paths = geo, inv
        return self._paths

    def reduced_generator(self, kind: str, name: str) -> tuple:
        """Britton-reduced syllables of one generator, computed once."""
        got = self._reduced.get((kind, name))
        if got is None:
            path = self.letters_to_path(((kind, name, 1),)).syllables
            got = self._reduced[(kind, name)] = reduce_syllables(self.graph.edges, path, self.base)
        return got

    @property
    def stable_edges(self) -> list[str]:
        return [e for e in self.graph.sorted_edges() if e not in self.tree]

    def generators(self) -> tuple[tuple[str, str], ...]:
        if self._generators is None:
            gens = [("v", v) for v in self.graph.sorted_vertices()]
            self._generators = tuple(gens + [("t", e) for e in self.stable_edges])
        return self._generators

    def relations(self) -> tuple[tuple, ...]:
        """One relator letter-word per non-oriented edge, built once."""
        if self._relations is None:
            rels = []
            for name in self.graph.sorted_edges():
                ed = self.graph.edges[name]
                v, w = ed.endpoints
                lv, lw = ed.labels
                if name in self.tree:
                    rels.append((("v", v, lv), ("v", w, -lw)))
                else:
                    rels.append((("t", name, 1), ("v", v, lv), ("t", name, -1), ("v", w, -lw)))
            self._relations = tuple(rels)
        return self._relations

    # letter words: tuples of ("v", vertex, exp) | ("t", edge, exp) | ("w", word, exp)

    def letters_to_path(self, letters) -> PathWord:
        geo, inv = self.tree_paths()
        syls: list = []
        for kind, name, exp in letters:
            if exp == 0:
                continue
            if kind == "v":
                if name not in self.graph.vertices:
                    raise MalformedWordError(f"unknown vertex generator {name}")
                syls.extend(geo[name])
                syls.append(("v", name, exp))
                syls.extend(inv[name])
            elif kind == "t":
                if name not in self.graph.edges or name in self.tree:
                    raise MalformedWordError(f"{name} is not a stable-letter edge")
                v, w = self.graph.edges[name].endpoints
                if exp > 0:
                    hop = geo[w] + (("e", name, 1),) + inv[v]
                else:
                    hop = geo[v] + (("e", name, 0),) + inv[w]
                check_word_cap(len(syls) + abs(exp) * len(hop))
                for _ in range(abs(exp)):
                    syls.extend(hop)
            elif kind == "w":
                piece = self.letters_to_path(expand_letters(((kind, name, exp),))).syllables
                check_word_cap(len(syls) + len(piece))
                syls.extend(piece)
            else:
                raise MalformedWordError(f"bad letter kind {kind!r}")
        return PathWord(self.base, tuple(syls))

    def path_to_letters(self, syllables) -> tuple:
        """The letters of a path.  They read only the tree, so a path w from
        another vertex u reads as p w p^-1, for p the tree path from the base to u."""
        return letters_concat(
            syl if syl[0] == "v" else ("t", syl[1], 1 if syl[2] == 1 else -1)
            for syl in syllables
            if syl[0] == "v" or syl[1] not in self.tree
        )


def letters_inverse(letters) -> tuple:
    return tuple((k, n, -e) for k, n, e in reversed(letters))


def letters_concat(*words) -> tuple:
    """Free-group product.  Shared subwords merge only when they are the
    same object: == could walk a DAG in time exponential in its size."""
    out: list = []
    for word in words:
        for k, n, e in word:
            if e == 0:
                continue
            if out and out[-1][0] == k and (out[-1][1] is n or (k != "w" and out[-1][1] == n)):
                merged = out[-1][2] + e
                out.pop()
                if merged:
                    out.append((k, n, merged))
            else:
                out.append((k, n, e))
    return tuple(out)


def letters_power(letters, exp: int) -> tuple:
    """letters^exp.  Written u c u^-1 with u as long as the letters allow,
    the power is u c^exp u^-1, and c^exp for a core c of two or more letters
    and |exp| >= 2 is the one shared-subword letter ("w", c, exp)."""
    if exp == 0:
        return ()
    if len(letters) == 1:
        k, n, e = letters[0]
        return ((k, n, e * exp),)
    if abs(exp) == 1:
        return letters_concat(letters if exp > 0 else letters_inverse(letters))
    i = 0
    while 2 * i + 1 < len(letters):
        (k, n, e), (k2, n2, e2) = letters[i], letters[-1 - i]
        if k != k2 or e != -e2 or not (n is n2 or (k != "w" and n == n2)):
            break
        i += 1
    core = letters[i : len(letters) - i]
    power = letters_power(core, exp) if len(core) == 1 else (("w", core, exp),)
    return letters_concat(letters[:i], power, letters_inverse(letters[:i]))


def memoize_shared(memo: dict, word, fn):
    """Set memo[id(s)] = (s, fn(s)) for the shared subword `word` and each one
    under it not yet in memo, inner ones first, so fn(s) finds them done
    (keeping s pins its id).  Iterative: JSON tables may nest deeply."""
    stack = [(word, iter(word))]
    while stack:
        for kind, sub, _ in stack[-1][1]:
            if kind == "w" and id(sub) not in memo:
                stack.append((sub, iter(sub)))
                break
        else:
            sub = stack.pop()[0]
            memo[id(sub)] = (sub, fn(sub))


def expand_letters(letters, memo: dict | None = None) -> tuple:
    """The flat letter word: each shared subword expanded once."""
    memo = {} if memo is None else memo
    out: list = []
    for kind, sub, exp in letters:
        if kind != "w":
            out.append((kind, sub, exp))
            continue
        if id(sub) not in memo:
            memoize_shared(memo, sub, lambda s: expand_letters(s, memo))
        flat = memo[id(sub)][1]
        check_word_cap(len(out) + abs(exp) * len(flat))
        out.extend((flat if exp > 0 else letters_inverse(flat)) * abs(exp))
    return letters_concat(out)


def format_letters(letters, ref=None) -> str:
    """Text of a letter word; ref(word) names a shared subword (w<i>)."""
    parts = []
    for kind, name, exp in letters:
        head = f"a({name})" if kind == "v" else f"t({name})" if kind == "t" else ref(name)
        parts.append(head if exp == 1 else f"{head}^{exp}")
    return " ".join(parts) or "1"


def parse_letters(text: str, table=()) -> tuple:
    """Inverse of format_letters; a token w<i> is table[i], shared."""
    out = []
    for tok in text.split():
        if tok == "1":
            continue
        head, caret, exp_s = tok.partition("^")
        try:
            exp = int(exp_s) if caret else 1
        except ValueError:
            raise InputError(f"exponent of word token {tok!r} is not an integer") from None
        if head.startswith("a(") and head.endswith(")"):
            out.append(("v", head[2:-1], exp))
        elif head.startswith("t(") and head.endswith(")"):
            out.append(("t", head[2:-1], exp))
        elif head[:1] == "w" and head[1:].isascii() and head[1:].isdigit():
            if int(head[1:]) >= len(table):
                raise InputError(f"word token {tok!r} names no earlier shared word")
            out.append(("w", table[int(head[1:])], exp))
        else:
            raise InputError(f"cannot parse word token {tok!r}")
    return tuple(out)


# -- modular homomorphism ----------------------------------------------------


def modular_image(g: LabelledGraph) -> RationalMultGroup:
    """Image of the modular homomorphism, generated by the stable letters'
    label-ratio products around their fundamental loops."""
    pres = Presentation(g)
    return RationalMultGroup([modulus(g, pres.letters_to_path((("t", e, 1),))) for e in pres.stable_edges])


def is_unimodular(g: LabelledGraph) -> bool:
    return modular_image(g).is_subgroup_of_pm1()


def has_nontrivial_center(g: LabelledGraph) -> bool:
    """Trivial modular image <=> nontrivial center (non-elementary inputs)."""
    return modular_image(g).is_trivial()


# -- center index along a segment -------------------------------------------


def segment_center_index(r0: int, q: list[int], r: list[int]) -> int:
    """Generator exponent N of <a_0^r0> n <a_k> inside <a_0^r0> for the
    segment with labels q_0..q_{k-1} near the left ends and r_1..r_k near
    the right ends: gcd-chain recursion, N = q_0...q_{k-1} / theta_k.
    """
    if r0 == 0 or any(v == 0 for v in q) or any(v == 0 for v in r):
        raise InputError("labels and r0 must be nonzero")
    if len(q) != len(r):
        raise InputError("need as many q as r labels")
    k = len(q)
    theta = 1
    rprod = abs(r0)
    for j in range(k):
        thetap = gcd(rprod // theta, q[j])
        theta *= thetap
        if j + 1 < k:
            rprod *= abs(r[j + 1 - 1])  # r_{j+1} joins the product
    nprod = 1
    for v in q:
        nprod *= abs(v)
    return nprod // theta
