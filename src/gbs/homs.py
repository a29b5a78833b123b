"""Homomorphism certificates between GBS groups.

A certificate carries generator images (letter words over the target
presentation) and optional surjectivity witnesses (for each target
generator, a source word mapping onto it).  Checking is purely mechanical:
source relators must map to Britton-trivial words, witness equations must
verify under the word engine.  Words may hold shared subword powers; they
are mapped and reduced once per shared subword, never written out.
Composition is substitution through one map of the middle presentation's
generators.  A change of spanning tree is conjugation along tree paths at
one base vertex: only generators whose tree path crosses an edge the other
tree makes stable are rewritten, and composing builds no presentation.

The module also produces the canonical certificates: the ones induced by
graph moves (collapse, expansion, sign change, contraction, displacement),
the non-Hopfian self-epimorphism, and the two families of quotient
constructions for 2-generated groups (smallest-source quotients, which
include BS(m, n) ->> BS(m', n') on a one-loop target, and maps onto the
minimal Baumslag-Solitar quotient).  move_cert builds the certificate
of one move from the move's record.
"""

from dataclasses import FrozenInstanceError, dataclass
from types import MappingProxyType

from .arith import factorize, gcd, split_power, xgcd
from .bs_arith import is_hopfian_bs, loop_match, multiple_direction
from .decision import Decision
from .errors import (
    CertificateError,
    DecisionError,
    InputError,
    MissingWitnessError,
    MoveError,
    ShapeError,
    malformed,
)
from .graphs import (
    LabelledGraph,
    MoveRecord,
    _Work,
    bs_graph,
    classify_shape,
    loop_labels,
    move,
    reduce_graph,
)
from .plateaus import two_generated_shape
from .words import (
    Presentation,
    britton_reduce,
    check_word_cap,
    format_letters,
    letters_concat,
    letters_inverse,
    letters_power,
    memoize_shared,
    parse_letters,
    reduce_syllables,
    syllables_inverse,
    tree_walk,
)


def tree_containing(g: LabelledGraph, edge: str) -> frozenset[str]:
    """Deterministic spanning tree containing the given non-loop edge."""
    if g.is_loop(edge):
        raise CertificateError(f"loop {edge} cannot lie in a spanning tree")
    tree = {edge}
    seen = set(g.edges[edge].endpoints)
    changed = True
    while changed:
        changed = False
        for name in g.sorted_edges():
            if name in tree:
                continue
            a, b = g.edges[name].endpoints
            if (a in seen) != (b in seen):
                tree.add(name)
                seen.update((a, b))
                changed = True
    return frozenset(tree)


def gen_name(gen: tuple[str, str]) -> str:
    return format_letters((gen + (1,),))


def _gen_keys(pres: Presentation) -> dict:
    """Each generator of pres under the one text gen_name gives it."""
    keys = {f"a({v})": ("v", v) for v in pres.graph.vertices}
    return keys | {f"t({e})": ("t", e) for e in pres.graph.edges if e not in pres.tree}


def _read_map(words: dict, keys: dict, table: list) -> dict:
    """A certificate map, each key read by its exact text: one text per generator."""
    if bad := [key for key in words.keys() if key not in keys]:
        raise InputError(f"certificate key {bad[0]!r} names no generator of its presentation")
    return {keys[key]: parse_letters(text, table) for key, text in words.items()}


@dataclass
class HomCertificate:
    """Immutable, fields and maps read-only, so check_hom and check_epi share
    the relator check kept on it; __init__ fills __dict__ (no frozen cost)."""

    source: Presentation
    target: Presentation
    images: dict  # ("v"|"t", name) -> target letters
    witnesses: dict | None  # ("v"|"t", target name) -> source letters
    provenance: str = ""
    flags: tuple[str, ...] = ()

    def __init__(self, source, target, images, witnesses, provenance="", flags=()):
        d = self.__dict__  # written past __setattr__; copy() reads a proxy 7x faster than dict() does
        d["source"], d["target"], d["provenance"], d["flags"], d["_checked"] = source, target, provenance, flags, None
        d["images"] = MappingProxyType(images.copy())
        d["witnesses"] = None if witnesses is None else MappingProxyType(witnesses.copy())

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"a hom certificate is immutable: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

    def image_of(self, letters) -> tuple:
        return substitute_letters(letters, self.images)

    def to_json(self) -> dict:
        """Version 1 when no word holds a shared subword.  Otherwise version 2:
        "words" lists each shared subword once, and a word names entry i as
        w<i> or w<i>^k; an entry names only earlier entries."""
        refs: dict = {}
        table: list[str] = []

        def ref(sub):
            if id(sub) not in refs:
                memoize_shared(refs, sub, lambda s: table.append(format_letters(s, ref)) or len(table) - 1)
            return f"w{refs[id(sub)][1]}"

        images = {gen_name(k): format_letters(v, ref) for k, v in self.images.items()}
        witnesses = None
        if self.witnesses is not None:
            witnesses = {gen_name(k): format_letters(v, ref) for k, v in self.witnesses.items()}
        out = {"kind": "hom", "version": 2, "source": _pres_json(self.source), "target": _pres_json(self.target)}
        out.update(words=table, images=images, witnesses=witnesses, provenance=self.provenance, flags=list(self.flags))
        if not table:
            del out["version"], out["words"]
        return out

    @classmethod
    @malformed("hom")
    def from_json(cls, data: dict) -> "HomCertificate":
        """InputError on a shape the readers do not unpack (a bool or float is no version)."""
        texts, flags = data.get("words", []), data.get("flags", [])
        strings = type(texts) is type(flags) is list and all(type(t) is str for t in (*texts, *flags))
        if type(version := data.get("version", 1)) is not int or version not in (1, 2) or not strings:
            raise InputError('a hom certificate has version 1 or 2, and its "words" and "flags" are lists of strings')
        table: list = []
        for text in texts:
            table.append(parse_letters(text, table))
        source = _pres_from_json(data["source"])  # an endomorphism has one presentation
        target = source if data["target"] == data["source"] else _pres_from_json(data["target"])
        src_keys = _gen_keys(source)
        tgt_keys = src_keys if target is source else _gen_keys(target)
        return cls(
            source=source,
            target=target,
            images=_read_map(data["images"], src_keys, table),
            witnesses=None if data.get("witnesses") is None else _read_map(data["witnesses"], tgt_keys, table),
            provenance=data.get("provenance", ""),
            flags=tuple(flags),
        )


def _pres_json(p: Presentation) -> dict:
    return {
        "graph": p.graph.to_json(),
        "tree": sorted(p.tree),
        "base": p.base,
    }


def _pres_from_json(data: dict) -> Presentation:
    return Presentation(
        LabelledGraph.from_json(data["graph"]),
        frozenset(data["tree"]),
        data["base"],
    )


def substitute_letters(letters, images: dict, memo: dict | None = None) -> tuple:
    """The image of a letter word; memo maps each shared subword once."""
    memo = {} if memo is None else memo
    out = []
    for kind, name, exp in letters:
        if kind == "w":
            if id(name) not in memo:
                memoize_shared(memo, name, lambda sub: substitute_letters(sub, images, memo))
            out.append(letters_power(memo[id(name)][1], exp))
            continue
        try:
            word = images[(kind, name)]
        except KeyError:
            raise CertificateError(f"no image for generator {gen_name((kind, name))}")
        out.append(letters_power(word, exp))
    return letters_concat(*out)


class _Reducer:
    """Britton-reduced images under a certificate, each shared subword
    reduced once.  A power of a reduced p a(v)^x p^-1 is written
    p a(v)^(kx) p^-1; any other power is written out, under the word cap."""

    def __init__(self, images, target: Presentation, memos: tuple = ((), ()), written: int = 0):
        self.images, self.target = images, target  # not the certificate that keeps it: no cycle
        self.memos = (dict(memos[0]), dict(memos[1]))  # target words, source words
        self.written = written  # syllables written out so far, under the word cap

    def pieces(self, word, source: bool) -> list:
        """The syllables of word (source letters through the images if
        `source`), reduced within each letter only."""
        memo, syls = self.memos[source], []
        for kind, name, exp in word:
            got = memo.get(id(name) if kind == "w" else (kind, name))
            if got is None:
                if not exp:
                    continue
                got = self.leaf(kind, name, source)
            piece = got[1]
            check_word_cap(self.written + len(syls) + len(piece))
            if exp == 1:
                syls.extend(piece)
            elif exp:
                mid = len(piece) // 2
                elliptic = len(piece) % 2 and piece[mid][0] == "v"  # p a(v)^x p^-1
                if elliptic and (not mid or piece[mid + 1 :] == syllables_inverse(piece[:mid])):
                    syls.extend(piece[:mid] + (("v", piece[mid][1], piece[mid][2] * exp),) + piece[mid + 1 :])
                else:
                    check_word_cap(self.written + len(syls) + abs(exp) * len(piece))
                    syls.extend((piece if exp > 0 else syllables_inverse(piece)) * abs(exp))
        return syls

    def leaf(self, kind, name, source: bool) -> tuple:
        """Set and return the memo entry of a letter seen first."""
        memo = self.memos[source]
        if kind == "w":
            memoize_shared(memo, name, lambda sub: self.reduce(sub, source))
            return memo[id(name)]
        if not source:
            got = self.target.reduced_generator(kind, name)
        elif (kind, name) in self.images:
            got = tuple(self.pieces(self.images[(kind, name)], False))
        else:
            raise CertificateError(f"no image for generator {gen_name((kind, name))}")
        return memo.setdefault((kind, name), (None, got))

    def reduce(self, word, source: bool, tail: tuple = ()) -> tuple:
        syls = self.pieces(word, source)
        syls.extend(tail)
        self.written += len(syls)
        check_word_cap(self.written)
        return reduce_syllables(self.target.graph.edges, syls, self.target.base)


def check_hom(cert: HomCertificate) -> bool:
    """Every source relator maps to a Britton-trivial target word: kept on
    the certificate with its reducer once reached (a raise keeps nothing)."""
    if cert._checked is None:
        red = _Reducer(cert.images, cert.target)
        cert.__dict__["_checked"] = red, all(not red.reduce(rel, True) for rel in cert.source.relations())
    return cert._checked[1]


def check_epi(cert: HomCertificate) -> bool:
    """check_hom plus verification of every surjectivity witness, on a copy
    of the kept reducer: each check counts its witness words afresh."""
    if not check_hom(cert):
        return False
    if cert.witnesses is None:
        raise MissingWitnessError(f"certificate {cert.provenance!r} has no witnesses")
    red = _Reducer(cert.images, cert.target, cert._checked[0].memos, cert._checked[0].written)
    for gen in cert.target.generators():
        if gen not in cert.witnesses:
            raise MissingWitnessError(f"missing witness for {gen_name(gen)}")
        if red.reduce(cert.witnesses[gen], True, syllables_inverse(cert.target.reduced_generator(*gen))):
            return False
    return True


def _identity_images(pres: Presentation, at: dict | None = None) -> dict:
    """Each generator of pres sent to itself, in generator order, except
    a(v) sent to a(u)^k, unreduced, where at[v] = (k, u)."""
    at = at or {}
    images = {}
    for kind, name in pres.generators():
        k, u = at.get(name, (1, name)) if kind == "v" else (1, name)
        images[(kind, name)] = ((kind, u, k),)
    return images


def identity_cert(pres: Presentation, provenance: str = "identity") -> HomCertificate:
    return HomCertificate(pres, pres, _identity_images(pres), _identity_images(pres), provenance)


def _generator_map(pres_from: Presentation, pres_to: Presentation, images: dict) -> dict:
    """Each generator of pres_from rewritten over pres_to, a presentation of
    the same graph, then sent through `images` (keyed by pres_to's
    generators).  A change of tree is conjugation along tree paths (Serre,
    Trees, I.5): at the canonical base vertex, a(v) is p(v) a(v) p(v)^-1 and
    t(e) for e = (v, w) is p(w) t(e) p(v)^-1, p(v) being the letters pres_to
    gives pres_from's tree path to v; with p empty the image is kept.  Both
    directions of a composition read at that one base, so they are mutually
    inverse (each presentation's own base would give maps that differ by an
    inner automorphism)."""
    if pres_from.tree == pres_to.tree:
        return images
    g, tree_to = pres_from.graph, pres_to.tree
    base = g.sorted_vertices()[0]
    prefix = {base: ()}
    for w, (v, e, end) in tree_walk(g, pres_from.tree, base).items():
        prefix[w] = prefix[v] if e in tree_to else prefix[v] + (("t", e, 2 * end - 1),)
    through = {}
    for kind, name in pres_from.generators():
        v, w = (name, name) if kind == "v" else g.edges[name].endpoints
        p, q = prefix[w], prefix[v]
        got = None if p or q else images.get((kind, name))
        if got is None:
            mid = ((kind, name, 1),) if kind == "v" or name not in tree_to else ()
            got = substitute_letters(letters_concat(p, mid, letters_inverse(q)), images)
        through[(kind, name)] = got
    return through


def compose(first: HomCertificate, *rest: HomCertificate, provenance: str = "") -> HomCertificate:
    """Certificate for the composite map (each certificate after the one
    before it), folded from the left: each step sends every word through one
    generator map, each shared subword mapped once, and one certificate is
    built at the end."""
    certs = (first, *rest)
    images, witnesses = first.images, first.witnesses
    for prev, c in zip(certs, rest):
        if prev.target.graph != c.source.graph:
            raise CertificateError("composition: target/source graphs differ")
        through = _generator_map(prev.target, c.source, c.images)
        memo: dict = {}
        images = {gen: substitute_letters(word, through, memo) for gen, word in images.items()}
        if witnesses is not None and c.witnesses is not None:
            through = _generator_map(c.source, prev.target, witnesses)
            memo = {}
            witnesses = {gen: substitute_letters(word, through, memo) for gen, word in c.witnesses.items()}
        else:
            witnesses = None
    provenance = provenance or ";".join(c.provenance for c in certs)
    flags = tuple(dict.fromkeys(flag for c in certs for flag in c.flags))
    return HomCertificate(first.source, certs[-1].target, images, witnesses, provenance, flags)


# -- move-induced certificates ----------------------------------------------


def _iso_at(rec: MoveRecord) -> dict:
    """The multiplier map at of a collapse, expansion or sign change record:
    a collapse multiplies the labels at its removed vertex by mult onto the
    survivor, a vertex sign change negates those at its vertex."""
    p = rec.params
    if rec.kind == "collapse":
        return {p[2]: (p[4], p[3])}
    if rec.kind not in ("expansion", "sign-change"):
        raise MoveError(f"a {rec.kind} certificate has no inverse")
    return {p[1]: (-1, p[1])} if rec.kind == "sign-change" and p[0] == "vertex" else {}


def _move_cert(src: Presentation, tgt: Presentation, at: dict, provenance: str, witnesses: dict) -> HomCertificate:
    """The certificate of a move: a(v) goes to a(u)^k where at[v] = (k, u)
    (the multiplier map the move applies to the labels at v; (1, v) when v
    is absent), each stable t(e) to itself, each image Britton-reduced over
    tgt, where a(u)^k pinches only up u's tree path."""
    images = {}
    for kind, name in src.generators():
        k, u = at.get(name, (1, name)) if kind == "v" else (1, name)
        while kind == "v" and u in tgt.up:
            parent, e, end = tgt.up[u]
            labels = tgt.graph.edges[e].labels
            if k % labels[1 - end]:
                break
            k, u = k // labels[1 - end] * labels[end], parent
        images[(kind, name)] = ((kind, u, k),)
    return HomCertificate(src, tgt, images, witnesses, provenance)


def move_cert(g: LabelledGraph, kind: str, *params):
    """(new graph, forward certificate, MoveRecord) of one move of `kind` on
    g, with graphs.move's parameters.  The certificate is _move_cert's, the
    target tree the source's less the merged edge or plus the expansion's new
    edge; a sign change's is its own witness map, unreduced.  A displacement
    renames its edge, so its certificate is displacement_cert's."""
    if kind == "displacement":
        raise MoveError("a displacement certificate is an expansion and a contraction: use displacement_cert")
    g2, rec = move(g, kind, *params)
    p = rec.params
    provenance = f"{kind}({p[5] if kind == 'expansion' else p[1] if kind == 'sign-change' else p[0]})"
    src = Presentation(g, tree_containing(g, p[0]) if kind in ("collapse", "contraction") else None)
    if kind == "sign-change":
        images = _identity_images(src, _iso_at(rec))
        return g2, HomCertificate(src, Presentation(g2, src.tree, src.base), images, images, provenance), rec
    if kind == "expansion":
        vertex, _, label, sgn, new_vertex, new_edge = p
        tgt = Presentation(g2, src.tree | {new_edge}, src.base)
        at, witnesses = {}, _identity_images(tgt, {new_vertex: (sgn * label, vertex)})  # splits off that power
    else:  # g2 is g less the non-loop edge, `removed` merged into `survivor`
        edge, (survivor, removed) = p[0], (p[3], p[2]) if kind == "collapse" else p[1:3]
        tgt = Presentation(g2, src.tree - {edge}, survivor if src.base == removed else src.base)
        witnesses = _identity_images(tgt)
        if kind == "collapse":
            at = _iso_at(rec)
        else:
            (v, w), (q, r, d) = g.edges[edge].endpoints, p[3:]
            at = {v: (r // d, survivor), w: (q // d, survivor)}
            _, x, y = xgcd(r // d, q // d)  # the Bezout witness of a(survivor)
            witnesses[("v", survivor)] = letters_concat((("v", v, x),), (("v", w, y),))
    return g2, _move_cert(src, tgt, at, provenance, witnesses), rec


def inverse_cert(cert: HomCertificate, rec: MoveRecord) -> HomCertificate:
    """The reverse isomorphism of move_cert's certificate of a collapse,
    expansion or sign change with record rec: the forward witnesses are its
    images, and each generator sent by the move's multiplier map, unreduced,
    its witnesses.  MoveError for a contraction."""
    back = _identity_images(cert.source, _iso_at(rec))
    return HomCertificate(cert.target, cert.source, cert.witnesses, back, cert.provenance.replace("(", "-inverse(", 1))


def displacement_cert(g: LabelledGraph, edge: str, r: int, divided_end: int):
    """Displacement as expansion + contraction; returns (graph, cert, new
    edge name).  The move body checks the factor (MoveError) on a working
    copy, whose graph is never built."""
    work = _Work(g)
    work.displacement(edge, r, divided_end)
    s = work.edges[edge].labels[divided_end]  # rs // r
    ends, moved = g.edges[edge].endpoints, ((edge, divided_end),)
    g1, c_exp, rec = move_cert(g, "expansion", ends[divided_end], moved, s, 1, g.fresh_vertex(), g.fresh_edge())
    g2, c_con, _ = move_cert(g1, "contraction", edge, ends[1 - divided_end])
    cert = compose(c_exp, c_con, provenance=f"displacement({edge},{r})")
    return g2, cert, rec.params[5]


def reduce_cert(g: LabelledGraph, protect: str | None = None):
    """Compose collapse certificates along reduce_graph's records."""
    _, records = reduce_graph(g, protect)
    if not records:
        return g, identity_cert(Presentation(g), "reduce(identity)")
    cur, certs = g, []
    for rec in records:
        cur, fwd, _ = move_cert(cur, "collapse", *rec.params[:2])
        certs.append(fwd)
    return cur, compose(*certs)


def loop_relabel_cert(g: LabelledGraph, m: int, n: int) -> HomCertificate:
    """Iso from a one-vertex one-loop graph onto the standard BS(m, n) graph,
    absorbing sign and orientation differences."""
    loop = loop_labels(g)
    if loop is None:
        raise CertificateError("relabel expects a single loop")
    (vname,) = g.vertices
    (ename,) = g.edges
    tgt = Presentation(bs_graph(m, n))
    src = Presentation(g)
    match = loop_match(loop, (m, n))
    if match is None:
        raise CertificateError(f"loop ({loop[0]},{loop[1]}) does not match BS({m},{n}) up to sign/swap")
    sgn, direction = match
    images = {
        ("v", vname): (("v", "v0", sgn),),
        ("t", ename): (("t", "e0", direction),),
    }
    witnesses = {
        ("v", "v0"): (("v", vname, sgn),),
        ("t", "e0"): (("t", ename, direction),),
    }
    return HomCertificate(src, tgt, images, witnesses, f"relabel->BS({m},{n})")


# -- surjectivity witness engine ---------------------------------------------


def _seed_to_plain(tgt: Presentation, source_letters, image_letters):
    """Normalize a seed to (vertex, exponent, source word) when the image is a
    (possibly t-power conjugated) vertex power; None otherwise."""
    ls = [l for l in image_letters if l[2] != 0]
    vs = [i for i, l in enumerate(ls) if l[0] == "v"]
    if len(vs) != 1:
        return None
    i = vs[0]
    prefix, suffix = ls[:i], ls[i + 1 :]
    if len(prefix) != len(suffix):
        return None
    for p, s in zip(prefix, reversed(suffix)):
        if p[0] != "t" or s[0] != "t" or p[1] != s[1] or p[2] != -s[2]:
            return None
    vertex, exp = ls[i][1], ls[i][2]
    steps = []
    for kind, name, e in prefix:
        steps.extend([(name, 1 if e > 0 else -1)] * abs(e))
    mult = 1
    for edge, sgn in reversed(steps):
        # t a(p0)^(l0 k) t^-1 = a(p1)^(l1 k), read from end 1 when t is inverted
        ed, near = tgt.graph.edges[edge], int(sgn < 0)
        if vertex != ed.endpoints[near]:
            return None
        l = ed.labels[near]
        j = abs(l) // gcd(exp, l)
        mult *= j
        exp = ed.labels[1 - near] * ((exp * j) // l)
        vertex = ed.endpoints[1 - near]
    return vertex, exp, letters_power(source_letters, mult)


def solve_witnesses(tgt: Presentation, seeds, stable_handles: dict):
    """Derive witness words for every target generator from elliptic seeds.

    seeds: (source_letters, image_letters) pairs; stable_handles maps each
    non-tree target edge to a source word whose image is exactly that stable
    letter.  Returns a witness dict or None when the gcd closure stalls.
    An offer of a(v)^d is decided from d alone: its word is built only when
    v has no word yet or d lowers the gcd kept for v.

    The closure needs no budget.  A vertex is queued on its first offer, of
    some d0 != 0, and after that only when xgcd strictly lowers its kept d;
    the new d divides the old one, so it is at most half of it.  So v is
    queued at most 1 + log2|d0| times (|d0|.bit_length()), and the number of
    pops is at most the sum of that over the vertices.
    """
    g = tgt.graph
    best: dict[str, tuple[int, tuple]] = {}
    queue: list[str] = []

    def offer(vertex, d, make):
        cur = best.get(vertex)
        if cur is None:
            gg = abs(d)
        else:
            d0, w0 = cur
            gg, xx, yy = xgcd(d0, abs(d))
            if gg >= d0:
                return
        word = make() if d > 0 else letters_inverse(make())
        if cur is not None:
            word = letters_concat(letters_power(w0, xx), letters_power(word, yy))
        best[vertex] = (gg, word)
        queue.append(vertex)

    for source_letters, image_letters in seeds:
        plain = _seed_to_plain(tgt, source_letters, image_letters)
        if plain is not None:
            vertex, d, word = plain
            offer(vertex, d, lambda: word)
    while queue:
        v = queue.pop()
        d, word = best[v]
        for oe in g.edges_at(v):
            name, end, near = oe.edge, oe.end, g.label(oe)
            handle = stable_handles.get(name)
            if handle is None and name not in tgt.tree:
                continue

            def make():
                new_word = letters_power(word, near // gcd(d, near))
                if name in tgt.tree:
                    return new_word
                if end == 0:
                    return letters_concat(handle, new_word, letters_inverse(handle))
                return letters_concat(letters_inverse(handle), new_word, handle)

            offer(g.terminus(oe), g.colabel(oe) * (d // gcd(d, near)), make)
    witnesses = {}
    for vertex in g.sorted_vertices():
        got = best.get(vertex)
        if got is None or got[0] != 1:
            return None
        witnesses[("v", vertex)] = got[1]
    for e in tgt.stable_edges:
        if e not in stable_handles:
            return None
        witnesses[("t", e)] = stable_handles[e]
    return witnesses


def witnessed_cert(
    src: Presentation, tgt: Presentation, images: dict, stable_handles: dict, provenance: str
) -> HomCertificate:
    """The certificate of `images` with witnesses from solve_witnesses, each
    generator and its image being a seed.  When the search stalls the
    certificate has no witnesses and carries the hom-only flag."""
    seeds = [(((kind, name, 1),), word) for (kind, name), word in images.items()]
    witnesses = solve_witnesses(tgt, seeds, stable_handles)
    flags = ("hom-only: witness search failed",) if witnesses is None else ()
    return HomCertificate(src, tgt, images, witnesses, provenance, flags)


# -- the non-Hopfian self-epimorphism -----------------------------------------


@dataclass
class NonHopfResult:
    params: tuple[int, int]  # the (m, n) ordering actually used
    cert: HomCertificate
    kernel_witness: tuple  # source letters, nontrivial, killed by the map


def non_hopf_endo(m: int, n: int) -> NonHopfResult:
    """Non-injective self-epimorphism a -> a^p, t -> t of a non-Hopfian
    BS(m, n), with a machine-checked kernel element."""
    if is_hopfian_bs(m, n):
        raise DecisionError(f"BS({m},{n}) is Hopfian")
    for mm, nn in ((m, n), (n, m)):
        one_sided = abs(split_power(mm, nn)[1])  # the primes of mm not dividing nn
        if one_sided > 1:
            p = min(factorize(one_sided))
            break
    else:
        raise AssertionError("non-Hopfian pair admits a one-sided prime")
    mprime = mm // p
    pres = Presentation(bs_graph(mm, nn))
    images = {("v", "v0"): (("v", "v0", p),), ("t", "e0"): (("t", "e0", 1),)}
    cert = witnessed_cert(pres, pres, images, {"e0": (("t", "e0", 1),)}, f"non-hopf-endo BS({mm},{nn})")
    if cert.witnesses is None:
        raise AssertionError("gcd closure must succeed for the power map")
    w = letters_concat(
        (("t", "e0", 1), ("v", "v0", mprime), ("t", "e0", -1), ("v", "v0", 1)),
        (("t", "e0", 1), ("v", "v0", -mprime), ("t", "e0", -1), ("v", "v0", -1)),
    )
    if britton_reduce(pres.graph, pres.letters_to_path(w)).trivial:
        raise AssertionError("kernel witness collapsed")
    if not britton_reduce(pres.graph, pres.letters_to_path(cert.image_of(w))).trivial:
        raise AssertionError("kernel witness not killed")
    if not check_epi(cert):
        raise AssertionError("non-Hopf endomorphism failed its own check")
    return NonHopfResult((mm, nn), cert, w)


# -- quotients of Baumslag-Solitar groups (smallest sources) ------------------


def _lollipop_stable(pres_graph: LabelledGraph, shape):
    """The lollipop/circle presentation with the last cycle edge as stable
    letter, plus the letters of tau (satisfying tau b^x tau^-1 = b^y)."""
    loop_edge = shape.circ_edges[-1]
    tree = frozenset(e for e in pres_graph.edges if e != loop_edge.edge)
    pres = Presentation(pres_graph, tree)
    tau = (("t", loop_edge.edge, 1 if loop_edge.end == 0 else -1),)
    return pres, tau


def bs_source_epi(g: LabelledGraph, m: int, n: int) -> HomCertificate:
    """Certificate for BS(m, n) ->> G for a reduced 2-generated G admitting
    it (segment: m = n divisible by Q or R; lollipop: (m,n) an integral
    multiple of (QX, QY) or (QY, QX))."""
    shape = two_generated_shape(g)
    src = Presentation(bs_graph(m, n))
    a, t = ("v", "v0"), ("t", "e0")
    if shape.kind == "segment":
        if m != n or (m % shape.Q and m % shape.R):
            raise DecisionError(f"BS({m},{n}) does not map onto this segment group")
        v0, vk = shape.seg_vertices[0], shape.seg_vertices[-1]
        if m % shape.Q == 0:
            ia, it = v0, vk
        else:
            ia, it = vk, v0
        tgt = Presentation(g)
        images = {a: (("v", ia, 1),), t: (("v", it, 1),)}
        handles = {}
    else:
        QX, QY = shape.Q * shape.X, shape.Q * shape.Y
        tdir = multiple_direction(m, n, QX, QY)
        if tdir is None:
            raise DecisionError(f"({m},{n}) is not a multiple of ({QX},{QY}) either way")
        g0 = shape.seg_vertices[0] if shape.kind == "lollipop" else shape.circ_vertices[0]
        tgt, tau = _lollipop_stable(g, shape)
        images = {a: (("v", g0, 1),), t: letters_power(tau, tdir)}
        handles = {tau[0][1]: (("t", "e0", tau[0][2] * tdir),)}
    return witnessed_cert(src, tgt, images, handles, f"BS({m},{n})->>G")


# -- maps onto the minimal Baumslag-Solitar quotient --------------------------


def _move_factor_around_circle(cur, certs, slots, start, factor, direction):
    """Chain of displacement certificates moving `factor` from position
    `start` to w_0: forward through increasing indices for x-labels
    (direction=+1), backward for y-labels (direction=-1)."""
    positions = range(start, len(slots)) if direction == 1 else range(start - 1, -1, -1)
    for s in positions:
        name, w_end = slots[s]
        # an x-label sits at the w_s side, a y-label at the w_{s+1} side
        divided_end = w_end if direction == 1 else 1 - w_end
        cur, cert, new_name = displacement_cert(cur, name, factor, divided_end)
        certs.append(cert)
        # new edge: endpoints (divided-side vertex, far vertex), divided side is end 0
        slots[s] = (new_name, 0 if direction == 1 else 1)
    return cur


def _circle_to_small(g, shape):
    """Displacement certificates clearing unilateral primes (not dividing
    gcd(X, Y)) out of x_i (i>0) and y_j (j<ell); returns (graph, certs)."""
    bilateral = gcd(shape.X, shape.Y)
    certs = []
    cur = g
    slots = [(oe.edge, oe.end) for oe in shape.circ_edges]
    for i in range(1, shape.ell):
        name, w_end = slots[i]
        factor = abs(split_power(cur.edges[name].labels[w_end], bilateral)[1])
        if factor > 1:
            cur = _move_factor_around_circle(cur, certs, slots, i, factor, 1)
    for j in range(1, shape.ell):
        name, w_end = slots[j - 1]
        factor = abs(split_power(cur.edges[name].labels[1 - w_end], bilateral)[1])  # y_j at w_j
        if factor > 1:
            cur = _move_factor_around_circle(cur, certs, slots, j, factor, -1)
    return cur, certs


def circle_minimal_epi(g: LabelledGraph, shape=None) -> HomCertificate:
    """Circle case: G ->> BS(X, Y) via displacement moves and collapses."""
    shape = shape or classify_shape(g)
    if shape.kind != "circle":
        raise ShapeError("circle_minimal_epi expects a circle")
    _refuse_unless_onto(shape)
    X, Y = shape.X, shape.Y
    if shape.ell == 1:
        return loop_relabel_cert(g, X, Y)
    cur, certs = _circle_to_small(g, shape)
    cur, red = reduce_cert(cur)
    return compose(*certs, red, loop_relabel_cert(cur, X, Y), provenance=f"circle->>BS({X},{Y})")


def _find_i0(xs, ys, bilateral):
    """Smallest index i0 such that no prime of `bilateral` divides x_i for
    i > i0 or y_j for j <= i0 (paper indexing: ys[j-1] is y_j)."""
    for i0 in range(len(xs)):
        if all(gcd(x, bilateral) == 1 for x in xs[i0 + 1 :] + ys[:i0]):
            return i0
    return None


def _onto_minimal(shape) -> Decision:
    """The gcd-clause test of maps_onto_minimal_bs on a circle or lollipop shape."""
    QX, QY = shape.Q * shape.X, shape.Q * shape.Y
    for i in range(shape.k):
        for j in range(i + 1, shape.k):  # paper's r_j, j < k
            if gcd(shape.q[i], shape.r[j - 1]) != 1:
                return Decision(False, "prefix", (f"gcd(q_{i}, r_{j}) > 1",))
    if gcd(shape.X, QY) == 1:
        return Decision(True, "X^QY=1")
    if gcd(shape.Y, QX) == 1:
        return Decision(True, "Y^QX=1")
    if shape.kind == "lollipop" and gcd(shape.Q, shape.r[-1]) != 1:
        return Decision(False, "all clauses fail", (f"gcd(Q, r_k) = {gcd(shape.Q, shape.r[-1])}",))
    i0 = _find_i0(shape.x, shape.y, gcd(QX, QY))
    if i0 is not None:
        return Decision(True, "split index", (f"i0={i0}",))
    return Decision(False, "all clauses fail", ("no split index",))


def _refuse_unless_onto(shape):
    """_onto_minimal's no as a DecisionError naming its clause and reasons."""
    dec = _onto_minimal(shape)
    if not dec:
        QX, QY = shape.Q * shape.X, shape.Q * shape.Y
        raise DecisionError(f"G does not map onto BS({QX},{QY}): {dec.clause} ({', '.join(dec.reasons)})")


def _solve_alpha_beta(R, X, Y):
    """alpha, beta >= 0 and Rtilde with R * Rtilde = X^alpha * Y^beta."""
    alpha, rest = split_power(R, X)
    beta, rest = split_power(rest, Y)
    if abs(rest) != 1:
        raise DecisionError(f"prime {min(factorize(rest))} of R divides neither X nor Y")
    return alpha, beta, X**alpha * Y**beta // R


def _small_lollipop_explicit(g: LabelledGraph, shape) -> HomCertificate:
    """The k = l = 1 lollipop onto BS(QX, QY) by the explicit assignment
    a_0 -> a^(Y^(alpha+beta)), b_0 -> t^alpha a^(Rt*Q) t^-alpha, tau -> t
    (or its X/Y-mirror, a^(X^(alpha+beta)) and t^-beta a^(Rt*Q) t^beta)."""
    Q, R, X, Y = shape.Q, shape.R, shape.X, shape.Y
    QX, QY = Q * X, Q * Y
    alpha, beta, rt = _solve_alpha_beta(R, X, Y)
    src, tau = _lollipop_stable(g, shape)
    tgt = Presentation(bs_graph(QX, QY))
    a0 = shape.seg_vertices[0]
    b0 = shape.circ_vertices[0]
    # else X^QY = 1: the caller enters only when Y^QX = 1 or X^QY = 1
    power, s = (Y, alpha) if gcd(Y, QX) == 1 else (X, -beta)
    images = {
        ("v", a0): (("v", "v0", power ** (alpha + beta)),),
        ("v", b0): letters_concat(
            (("t", "e0", s),), (("v", "v0", rt * Q),), (("t", "e0", -s),)
        ),
        ("t", tau[0][1]): letters_power((("t", "e0", 1),), tau[0][2]),
    }
    return witnessed_cert(src, tgt, images, {"e0": letters_power(tau, 1)}, f"lollipop->>BS({QX},{QY})")


def minimal_bs_epi(g: LabelledGraph) -> HomCertificate:
    """Certificate G ->> BS(QX, QY) for a reduced 2-generated circle or
    lollipop satisfying the mapping-onto criterion."""
    shape = classify_shape(g)
    if shape.kind == "circle":
        return circle_minimal_epi(g, shape)
    if shape.kind != "lollipop":
        raise ShapeError("minimal_bs_epi expects a circle or lollipop")
    _refuse_unless_onto(shape)
    Q, X, Y = shape.Q, shape.X, shape.Y
    if shape.k > 1:
        edge = shape.seg_edges[0]
        g2, cert, _ = move_cert(g, "contraction", edge.edge, g.edges[edge.edge].endpoints[edge.end])
        rest = minimal_bs_epi(g2)
        return compose(cert, rest, provenance=f"lollipop->>BS({Q*X},{Q*Y})")
    if gcd(Y, Q * X) == 1 or gcd(X, Q * Y) == 1:
        if shape.ell == 1:
            return _small_lollipop_explicit(g, shape)
        # clear the circle to a single edge first (R changes, Q/X/Y do not);
        # X and Y are coprime here, so every prime of the labels is cleared
        cur, certs = _circle_to_small(g, shape)
        cur, red = reduce_cert(cur, protect=shape.circ_vertices[0])
        last = _small_lollipop_explicit(cur, classify_shape(cur))
        return compose(*certs, red, last, provenance=f"lollipop->>BS({Q*X},{Q*Y})")
    edge = shape.seg_edges[-1]
    g2, cert, _ = move_cert(g, "contraction", edge.edge, g.terminus(edge))
    shape2 = classify_shape(g2)
    rest = circle_minimal_epi(g2, shape2)
    return compose(cert, rest, provenance=f"lollipop->>BS({Q*X},{Q*Y})")
