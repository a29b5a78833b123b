"""Subgroup certificates: weakly admissible maps between labelled graphs.

A weakly admissible map is a graph morphism with positive vertex and edge
multiplicities subject to a local gcd condition; it certifies that the
source graph's group embeds into the target's.  The checker is purely
local.  Constructions: the circle certificate for coprime-parameter
subgroups, the block-circle and power-circle embeddings between
Baumslag-Solitar groups, and the equal-label test for subgroups of BS(n,n).
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm, prod

from .arith import gcd, split_power
from .bs_arith import embeds_bs, equal_exponent_part, loop_match, power_of_ratio
from .decision import Decision
from .errors import CertificateError, DecisionError, InputError, NotReducedError, ShapeError, malformed
from .graphs import (
    LabelledGraph,
    MoveRecord,
    bs_graph,
    canonicalize_signs,
    classify_shape,
    graph_from_edges,
    id_key,
    loop_labels,
    reduce_graph,
    replay,
)
from .quotients import _detect_elementary
from .words import modular_image

_ENDS = {"0": 0, "1": 1}  # the one spelling of each edge end in an edge_map key


@dataclass
class WeaklyAdmissibleMap:
    source: LabelledGraph
    target: LabelledGraph
    vertex_map: dict
    edge_map: dict  # (edge, end) -> (edge, end)
    vertex_mult: dict
    edge_mult: dict

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "vertex_map": dict(self.vertex_map),
            "edge_map": {f"{e}:{k}": list(v) for (e, k), v in self.edge_map.items()},
            "vertex_mult": dict(self.vertex_mult),
            "edge_mult": dict(self.edge_mult),
        }

    @classmethod
    @malformed("embedding")
    def from_json(cls, data: dict) -> "WeaklyAdmissibleMap":
        """Images are names, multiplicities and edge ends JSON integers, each edge key is "<edge>:0"
        or "<edge>:1" (one spelling per end) and each key names a source vertex or edge (one text per
        map); InputError otherwise, and on a shape the readers do not unpack."""
        source = LabelledGraph.from_json(data["source"])
        edge_map = {}
        for key, (image, end) in data["edge_map"].items():
            if type(image) is not str or type(end) is not int:
                raise InputError(f"the image of {key} must be an edge and an end, not {[image, end]!r}")
            e, k = key.rsplit(":", 1)
            if e not in source.edges:
                raise InputError(f"the map has an entry for {e}, not in the source graph")
            edge_map[(e, _ENDS[k])] = (image, end)
        vertex_map, vertex_mult, edge_mult = dict(data["vertex_map"]), dict(data["vertex_mult"]), dict(data["edge_mult"])
        if set(map(type, chain(vertex_mult.values(), edge_mult.values()))) - {int}:
            raise InputError("each multiplicity must be an integer")
        if set(map(type, vertex_map.values())) - {str}:
            raise InputError("each vertex image must be a vertex name")
        stray = (vertex_map.keys() | vertex_mult.keys()) - source.vertices or edge_mult.keys() - source.edges.keys()
        if stray:
            raise InputError(f"the map has an entry for {min(stray)}, not in the source graph")
        return cls(
            source,
            LabelledGraph.from_json(data["target"]),
            vertex_map,
            edge_map,
            vertex_mult,
            edge_mult,
        )


def _items(x, kinds: tuple, what: str) -> tuple:
    """x as a tuple when it is a JSON list whose items have the types `kinds`
    exactly (a bool or float is no int); InputError otherwise."""
    if type(x) is not list or tuple(map(type, x)) != kinds:
        raise InputError(f"{what} must be a list of {len(kinds)} ({', '.join(k.__name__ for k in kinds)}), not {x!r}")
    return tuple(x)


def check_weakly_admissible(wa: WeaklyAdmissibleMap) -> tuple[bool, list[str]]:
    """Verify the local conditions; returns (ok, violation list)."""
    violations, _ = _check(wa)
    return not violations, violations


def _check(wa: WeaklyAdmissibleMap):
    """(violations, preimage groups).  The groups are (x, te, tend, label,
    k_x, preimage edge ends at x) for each oriented target edge (te, tend)
    and each source vertex x with an edge end over it, in no fixed order,
    where k_x is gcd(multiplicity of x, label); they are None when an image
    or a multiplicity is already at fault.  One pass in set and dict order
    (grouping as it checks the images), then one over the groups; each
    violation carries a key giving the reported order (vertices, then
    edges, by id; then groups by target edge id, end and vertex id, each
    group's count first, then its edge ends by id), so only a faulty map
    sorts."""
    found, pres = [], {}
    src, tgt = wa.source, wa.target
    vmap, vmult, emap, emult = wa.vertex_map, wa.vertex_mult, wa.edge_map, wa.edge_mult
    for v in src.vertices:
        if vmap.get(v) not in tgt.vertices:
            found.append(((0, id_key(v), 0), f"vertex {v}: image missing or unknown"))
        if vmult.get(v, 0) <= 0:
            found.append(((0, id_key(v), 1), f"vertex {v}: multiplicity must be positive"))
    for e, ed in src.edges.items():
        if emult.get(e, 0) <= 0:
            found.append(((1, id_key(e), 0), f"edge {e}: multiplicity must be positive"))
        for k, x in enumerate(ed.endpoints):
            img = emap.get((e, k))
            if img is None or img[0] not in tgt.edges or img[1] not in (0, 1):
                found.append(((1, id_key(e), 1 + 3 * k), f"edge {e}:{k}: image missing or unknown"))
                continue
            te, tend = img
            if emap.get((e, 1 - k)) != (te, 1 - tend):
                found.append(((1, id_key(e), 2 + 3 * k), f"edge {e}: images not reverse-compatible"))
            if vmap.get(x) != tgt.edges[te].endpoints[tend]:
                found.append(((1, id_key(e), 3 + 3 * k), f"edge {e}:{k}: origins do not commute with the map"))
            pres.setdefault((te, tend, x), []).append((e, k))
    if found:
        return [msg for _, msg in sorted(found)], None
    groups = []
    for (te, tend, x), pre in pres.items():
        lab, mult = tgt.edges[te].labels[tend], vmult[x]
        k_x = gcd(mult, lab)
        groups.append((x, te, tend, lab, k_x, pre))
        if len(pre) > k_x:
            found.append(((id_key(te), tend, id_key(x), 0),
                          f"vertex {x} over {te}:{tend}: {len(pre)} preimage edges > gcd {_int(k_x)}"))
        for e, k in pre:
            if (label := src.edges[e].labels[k]) != lab // k_x:
                found.append(((id_key(te), tend, id_key(x), 1, id_key(e), k, 0),
                              f"edge {e}:{k}: label {_int(label)} != {_int(lab)}//{_int(k_x)}"))
            if emult[e] != mult // k_x:
                found.append(((id_key(te), tend, id_key(x), 1, id_key(e), k, 1),
                              f"edge {e}: multiplicity {_int(emult[e])} != {_int(mult)}//{_int(k_x)}"))
    return [msg for _, msg in sorted(found)], groups


def check_admissible(wa: WeaklyAdmissibleMap) -> bool:
    """Equality version: exactly gcd-many preimage edges everywhere (covers).
    A source vertex with no edge end over some target edge end at its image
    fails."""
    violations, groups = _check(wa)
    if violations:
        return False
    covered = Counter(x for x, *_ in groups)
    return all(len(pre) == k_x for _, _, _, _, k_x, pre in groups) and all(
        covered[x] == wa.target.valence(wa.vertex_map[x]) for x in wa.source.vertices
    )


@dataclass
class EmbeddingCertificate:
    """A weakly admissible map plus a replayable reduction of its source
    graph to the canonical loop of the claimed subgroup.  `aug_records`
    bridge the claimed parameters to the loop the map itself certifies
    (index-scaling steps BS(c) < BS(nu*c))."""

    map: WeaklyAdmissibleMap
    claimed: tuple[int, int]
    map_claimed: tuple[int, int]
    aug_records: tuple = ()  # ("scale", nu) entries
    source_reduce: tuple = ()
    target_params: tuple[int, int] | None = None
    target_reduce: tuple = ()
    provenance: str = ""

    def to_json(self) -> dict:
        return {
            "kind": "embedding",
            "map": self.map.to_json(),
            "claimed": list(self.claimed),
            "map_claimed": list(self.map_claimed),
            "aug_records": [list(r) for r in self.aug_records],
            "source_reduce": [r.to_json() for r in self.source_reduce],
            "target_params": list(self.target_params) if self.target_params else None,
            "target_reduce": [r.to_json() for r in self.target_reduce],
            "provenance": self.provenance,
        }

    @classmethod
    @malformed("embedding")
    def from_json(cls, data: dict) -> "EmbeddingCertificate":
        """InputError on a shape the readers do not unpack (a missing key, a
        list for an object, an edge key whose end is not 0 or 1, ...)."""
        return cls(
            map=WeaklyAdmissibleMap.from_json(data["map"]),
            claimed=_items(data["claimed"], (int, int), "claimed"),
            map_claimed=_items(data["map_claimed"], (int, int), "map_claimed"),
            aug_records=tuple(_items(r, (str, int), "an index record") for r in data.get("aug_records", ())),
            source_reduce=tuple(MoveRecord.from_json(r) for r in data.get("source_reduce", ())),
            target_params=_items(data["target_params"], (int, int), "target_params")
            if data.get("target_params")
            else None,
            target_reduce=tuple(MoveRecord.from_json(r) for r in data.get("target_reduce", ())),
            provenance=data.get("provenance", ""),
        )


def _int(x) -> str:
    """x for a violation message: its repr, or from 100 digits on an int's bit length (int-to-str stops at 4,300)."""
    return repr(x) if type(x) is not int or abs(x) < 10**100 else f"{'-' * (x < 0)}<{x.bit_length()}-bit integer>"


def _shown(pair) -> str:
    return f"({', '.join(map(_int, pair))})"


def _replayed_loop(g: LabelledGraph, records, side: str):
    """The loop labels `records` reduce g to (None when that is not a single
    loop); a replay that fails raises CertificateError naming `side`."""
    try:
        g = replay(g, records)
    except Exception as exc:  # replay must not crash verification
        raise CertificateError(f"{side} reduction replay failed: {exc}") from exc
    return loop_labels(g)


def _claim_violations(cert: EmbeddingCertificate, loop):
    """Yield, in order, the violations of the source claims, given the loop the source reduces to (None: no
    single loop): that loop against map_claimed, each index record, then claimed scaled by nu, the product
    of the ("scale", nu) records, against map_claimed, all up to swap and sign (`loop_match`)."""
    if loop is None:
        yield "source reduction does not end in a single loop"
    elif loop_match(loop, cert.map_claimed) is None:
        yield f"source reduces to loop {_shown(loop)}, certificate claims {_shown(cert.map_claimed)}"
    nu = 1
    for rec in cert.aug_records:
        if tuple(map(type, rec)) != (str, int) or rec[0] != "scale" or rec[1] == 0:
            yield f"bad index record {_shown(rec)}"
        else:
            nu *= rec[1]
    scaled = (cert.claimed[0] * nu, cert.claimed[1] * nu)
    if loop_match(scaled, cert.map_claimed) is None:
        yield f"index records scale {_shown(cert.claimed)} to {_shown(scaled)}, not {_shown(cert.map_claimed)}"


def verify_embedding_certificate(cert: EmbeddingCertificate) -> tuple[bool, list[str]]:
    ok, violations = check_weakly_admissible(cert.map)
    try:
        violations += _claim_violations(cert, _replayed_loop(cert.map.source, cert.source_reduce, "source"))
        if cert.target_params is not None or cert.target_reduce:  # no records: the target itself
            loop = _replayed_loop(cert.map.target, cert.target_reduce, "target")
            if cert.target_params is None or loop is None or loop_match(loop, cert.target_params) is None:
                violations.append("target reduction does not reach the claimed loop")
    except CertificateError as exc:
        violations.append(str(exc))
    return not violations, violations


# -- pattern builder -----------------------------------------------------------


@dataclass
class _Pattern:
    """A construction before its map is derived.  vertices: name -> (target
    vertex, multiplicity); edges: (name, origin, terminus, (target edge,
    end)) rows.  The rest is copied into the certificate: the index records
    `aug`, the provenance, the vertex the source is reduced around first,
    and the target's claimed loop with the records that reach it."""

    target: LabelledGraph
    vertices: dict
    edges: list
    aug: tuple = ()
    provenance: str = ""
    protect: str | None = None
    target_params: tuple[int, int] | None = None
    target_reduce: tuple = ()


def _derive_map(pattern: _Pattern) -> WeaklyAdmissibleMap:
    """Build the source graph forced by a pattern: labels and edge
    multiplicities are derived from the local gcd equations."""
    target = pattern.target
    vmap = {n: tv for n, (tv, _) in pattern.vertices.items()}
    vmult = {n: abs(m) for n, (_, m) in pattern.vertices.items()}
    rows = []
    emap = {}
    emult = {}
    for name, o, t, (te, tend) in pattern.edges:
        lab_o = target.edges[te].labels[tend]
        lab_t = target.edges[te].labels[1 - tend]
        k_o = gcd(vmult[o], lab_o)
        k_t = gcd(vmult[t], lab_t)
        if vmult[o] // k_o != vmult[t] // k_t:
            raise CertificateError(
                f"pattern edge {name}: inconsistent multiplicity "
                f"{vmult[o]}//{k_o} vs {vmult[t]}//{k_t}"
            )
        rows.append((name, o, t, lab_o // k_o, lab_t // k_t))
        emap[(name, 0)] = (te, tend)
        emap[(name, 1)] = (te, 1 - tend)
        emult[name] = vmult[o] // k_o
    source = graph_from_edges(rows)
    return WeaklyAdmissibleMap(source, target, vmap, emap, vmult, emult)


def _ring(target, verts, orients, provenance, aug=()) -> _Pattern:
    """The circle z0 ... z(N-1) over `target`: z<i> maps to verts[i] (a target
    vertex and a multiplicity), and d<i> runs from z<i> to z<(i+1) mod N> over
    the target edge end orients[i]."""
    vertices = {f"z{i}": v for i, v in enumerate(verts)}
    edges = [(f"d{i}", f"z{i}", f"z{(i + 1) % len(verts)}", o) for i, o in enumerate(orients)]
    return _Pattern(target, vertices, edges, aug, provenance)


def _scale(nu: int) -> tuple:
    """The index records of BS(c) < BS(nu c): one ("scale", nu), none for nu = 1."""
    return (("scale", nu),) if nu != 1 else ()


def _finish_cert(pattern: _Pattern, claimed) -> EmbeddingCertificate:
    """The certificate of a pattern: derive its map, check it is weakly
    admissible, reduce its source (around `protect` first, then fully) and
    check its claims with the verifier's own `_claim_violations`.  Every
    certificate is finished here once, so this is the one place a
    construction's claim is checked, and it is checked as `gbs verify` does."""
    wa = _derive_map(pattern)
    ok, violations = check_weakly_admissible(wa)
    if not ok:
        raise CertificateError(f"construction not weakly admissible: {violations[:3]}")
    cur, records = reduce_graph(wa.source, protect=pattern.protect)
    if pattern.protect is not None:
        cur, more = reduce_graph(cur)
        records.extend(more)
    loop = loop_labels(cur)
    cert = EmbeddingCertificate(
        map=wa,
        claimed=tuple(claimed),
        map_claimed=loop,
        aug_records=tuple(pattern.aug),
        source_reduce=tuple(records),
        target_params=pattern.target_params,
        target_reduce=tuple(pattern.target_reduce),
        provenance=pattern.provenance,
    )
    violation = next(_claim_violations(cert, loop), None)  # only the first: with no loop, map_claimed is None
    if violation is not None:
        raise CertificateError(f"{pattern.provenance}: {violation}")
    return cert


# -- the circle construction ---------------------------------------------------


def circle_bs_subgroup(g: LabelledGraph, m: int, n: int) -> EmbeddingCertificate:
    """BS(m, n) inside the group of a reduced circle with X = m, Y = n and
    m ^ n = 1: the three-block wrap-around circle."""
    shape = classify_shape(g)
    if shape.kind != "circle":
        raise ShapeError("construction needs a circle")
    if (shape.X, shape.Y) != (m, n):
        raise DecisionError(f"circle has (X, Y) = ({shape.X}, {shape.Y}), not ({m}, {n})")
    if gcd(m, n) != 1:
        raise DecisionError("construction needs coprime parameters")
    ell, cv = shape.ell, shape.circ_vertices
    circ = [(ce.edge, ce.end) for ce in shape.circ_edges]
    if ell == 1:
        return _finish_cert(_ring(g, [(cv[0], 1)], circ, provenance="identity circle"), (m, n))
    xs, ys = [abs(x) for x in shape.x], [abs(y) for y in shape.y]  # prod(ys[:i]) is |y_1 ... y_i|
    verts = [(cv[i], prod(ys[:i])) for i in range(ell)]
    verts += [(cv[(ell - i) % ell], prod(ys[: ell - i]) * prod(xs[ell - i :])) for i in range(ell + 1)]
    verts += [(cv[i], prod(xs[i:])) for i in range(1, ell)]
    orients = circ + [(e, 1 - end) for e, end in reversed(circ)] + circ
    return _finish_cert(_ring(g, verts, orients, provenance=f"three-block circle for BS({m},{n})"), (m, n))


def contains_bs(g: LabelledGraph, m: int, n: int) -> bool:
    """m/n in lowest terms, m != +-n: BS(m, n) embeds iff m/n is a modulus."""
    if m == 0 or n == 0 or gcd(m, n) != 1 or m == n or m == -n:
        raise DecisionError("need coprime m, n with m != +-n")
    red, _ = reduce_graph(g)
    if _detect_elementary(red) is not None:
        raise DecisionError("modulus criterion needs a non-elementary group")
    return modular_image(g).contains(Fraction(m, n))


# -- Baumslag-Solitar into Baumslag-Solitar ------------------------------------


def _solve_exponent(rhat, base, extra=1):
    """Smallest x >= 1 and nu with nu*rhat = extra * base^x (signed), all of
    nu's primes dividing base*extra; returns (x, nu) or None."""
    x, rest = split_power(rhat // gcd(rhat, extra), base)
    if abs(rest) != 1:
        return None
    x = max(x, 1)
    return x, extra * base**x // rhat


def embed_bs_construct(r: int, s: int, m: int, n: int) -> EmbeddingCertificate:
    """Constructive certificate for BS(r, s) inside BS(m, n) whenever the
    three-condition decider says yes."""
    dec = embeds_bs(r, s, m, n)
    if not dec:
        raise DecisionError(f"BS({r},{s}) does not embed into BS({m},{n}): {dec.clause}")
    beta = power_of_ratio(r, s, m, n)
    rhat, shat = (r, s) if beta >= 0 else (s, r)
    return _finish_cert(_construct_core(rhat, shat, abs(beta), m, n), (r, s))


def _construct_core(rhat, shat, beta, m, n) -> _Pattern:
    """The pattern of BS(rhat, shat) < BS(m, n), where rhat/shat =
    (m/n)^beta; its aug records scale (rhat, shat) to its loop."""
    E_m, E_n = ("e0", 0), ("e0", 1)

    # Z^2 wrap: unit pairs arise as inner steps of the index split
    if abs(rhat) == 1 and abs(shat) == 1:
        verts = [("v0", abs(m)), ("v0", abs(n))]
        return _ring(bs_graph(m, n), verts, [E_m, E_n], provenance=f"unit wrap in BS({m},{n})")

    # unimodular target
    if m == n or m == -n:
        mu = abs(m // rhat)
        if (rhat * shat > 0) == (m * n > 0):
            return _ring(bs_graph(m, n), [("v0", mu)], [E_m], provenance=f"power loop in BS({m},{n})")
        verts = [("v0", mu), ("v0", abs(m))]
        return _ring(bs_graph(m, n), verts, [E_m, E_m], provenance=f"double wrap in BS({m},{n})")

    # solvable target
    if abs(m) == 1 or abs(n) == 1:
        k = max(beta, 1)
        return _ring(bs_graph(m, n), [("v0", 1)] * k, [E_m] * k, provenance=f"{k}-cycle in solvable BS({m},{n})")

    # same-exponent primes split off first: delta1 is the product of p^v_p(m)
    # over the primes with v_p(m) = v_p(n) > 0
    delta1 = equal_exponent_part(m, n)
    if delta1 > 1:
        nu1 = delta1 // gcd(delta1, rhat)
        r2, s2 = nu1 * rhat, nu1 * shat
        m1, n1 = m // delta1, n // delta1
        if abs(m1) == 1 or abs(n1) == 1:
            pattern = _power_circle(r2, s2, beta, m, n, swapped=abs(m1) != 1, variant_only=True)
        else:
            pattern = _pendant_extend(_construct_core(r2 // delta1, s2 // delta1, beta, m1, n1), delta1, m, n)
        pattern.aug = _scale(nu1) + pattern.aug
        return pattern

    if gcd(m, n) == 1:
        return _block_circle(rhat, shat, beta, m, n)

    if n % m == 0 or m % n == 0:
        swap = n % m != 0
        return _power_circle(rhat, shat, beta, m, n, swapped=swap)

    delta = gcd(m, n)
    return _delta_scale(_construct_core(rhat, shat, beta, m // delta, n // delta), delta, m, n)


def _block_circle(rhat, shat, beta, m, n) -> _Pattern:
    """Seven-block circle for coprime m, n, with index scaling.  x and y are
    the exponents of m in shat and of n in rhat; with beta = 0 and exactly
    one of them 0 both are raised to 1 (at (x, y) z0 would have
    multiplicity 1 and two edge ends over one target end)."""
    x, y = split_power(shat, m)[0], split_power(rhat, n)[0]
    if beta == 0 and (x == 0) != (y == 0):
        x, y = max(x, 1), max(y, 1)
    expr_r = m ** (x + beta) * n**y
    expr_s = m**x * n ** (y + beta)
    if expr_r % rhat or expr_s % shat or expr_r // rhat != expr_s // shat:
        raise CertificateError(f"no block-circle solution for ({rhat},{shat}) in ({m},{n})")
    return _block_circle_map(x, y, beta, m, n, _scale(expr_r // rhat))


def _block_circle_map(x, y, beta, m, n, aug=()) -> _Pattern:
    """The seven-block circle over BS(m, n); it reduces to the loop
    (m^(x+beta) n^y, m^x n^(y+beta))."""
    E_m, E_n = ("e0", 0), ("e0", 1)
    blocks = [  # (size, orientation, step in (i, j)); a vertex at (i, j) has multiplicity |m|^i |n|^j
        (x + beta, E_m, (0, 1)),
        (x + beta, E_n, (1, -1)),
        (y, E_n, (1, 0)),
        (x + y + beta, E_m, (-1, 1)),
        (x, E_n, (0, -1)),
        (y + beta, E_n, (1, -1)),
        (y + beta, E_m, (-1, 0)),
    ]
    verts, orients, i, j = [], [], 0, 0
    for size, orient, (di, dj) in blocks:
        for _ in range(size):
            verts.append(("v0", abs(m) ** i * abs(n) ** j))
            orients.append(orient)
            i, j = i + di, j + dj
    if (i, j) != (0, 0):
        raise AssertionError("block circle does not close")
    return _ring(bs_graph(m, n), verts, orients, f"block circle x={x} y={y} beta={beta}", aug)


def _power_circle(rhat, shat, beta, m, n, swapped, variant_only=False) -> _Pattern:
    """BS(rhat, shat) into BS(mm, Delta mm), where (mm, nn) is (m, n), or
    (n, m) when `swapped` (the n | m orientation), and Delta = nn / mm.

    The plain form is a circle of x + y edges giving BS(Delta^x, Delta^y);
    the variant adds a pendant edge and gives BS(mm Delta^x, mm Delta^y).
    The plain form is tried first and the variant second.  `variant_only`
    skips the plain form; it is set for the targets whose equal-exponent
    primes were split off, where (rhat, shat) is scaled to carry those
    primes."""
    mm, nn = (n, m) if swapped else (m, n)
    delta = nn // mm
    for variant in (True,) if variant_only else (False, True):
        solved = _solve_exponent(shat if swapped else rhat, delta, extra=mm if variant else 1)
        if solved is not None:
            break
    else:
        raise CertificateError(f"no power-circle form for ({rhat},{shat}) in ({m},{n})")
    x, nu = solved
    y = x + beta
    E_mm, E_nn = ("e0", int(swapped)), ("e0", int(not swapped))  # the ends of bs_graph(m, n) labelled mm and nn
    label = "variant " if variant else ""
    verts, orients = [("v0", abs(mm))] * (x + y), [E_nn] * x + [E_mm] * y
    pattern = _ring(bs_graph(m, n), verts, orients, f"{label}power circle x={x} y={y}", _scale(nu))
    if variant:
        pattern.vertices["zp"] = ("v0", abs(delta))
        pattern.edges.append(("dp", "zp", "z0", E_nn))
        pattern.protect = "z0"
    return pattern


def _delta_scale(inner: _Pattern, delta: int, m, n) -> _Pattern:
    """Retarget a pattern into BS(m', n') onto BS(delta m', delta n') by
    scaling every vertex multiplicity: each local gcd scales along, so the
    derived map is the inner one with scaled vertex multiplicities."""
    inner.target = bs_graph(m, n)
    inner.vertices = {v: (tv, mult * delta) for v, (tv, mult) in inner.vertices.items()}
    inner.provenance += f"; scaled into BS({m},{n})"
    return inner


def _pendant_extend(inner: _Pattern, delta1: int, m, n) -> _Pattern:
    """Index extension BS(delta1 r1, delta1 s1) < BS(delta1 m1, delta1 n1):
    attach a (delta1, 1) pendant edge pd0 from a new vertex pz0 at a
    multiplicity-coprime vertex and map into the two-vertex graph
    representing BS(m, n).  The inner names are z<i>, zp, d<i> and dp, so
    pz0 and pd0 are free."""
    m1, n1 = inner.target.edges["e0"].labels
    target = graph_from_edges(
        [("e0", "v0", "v0", m1, n1), ("pe", "p0", "v0", delta1, 1)]
    )
    coprime = [v for v in sorted(inner.vertices, key=id_key) if gcd(inner.vertices[v][1], delta1) == 1]
    if not coprime:
        raise CertificateError("no multiplicity coprime to the index: cannot extend")
    tgt_red, tgt_records = reduce_graph(target)
    tgt_loop = loop_labels(tgt_red)
    if tgt_loop is None or loop_match(tgt_loop, (m, n)) is None:
        raise CertificateError("pendant target does not reduce to BS(m, n)")
    anchor = coprime[0]
    inner.target, inner.protect = target, anchor
    inner.vertices["pz0"] = ("p0", abs(inner.vertices[anchor][1]))
    inner.edges.append(("pd0", "pz0", anchor, ("pe", 0)))
    inner.provenance += f"; pendant index {delta1}"
    inner.target_params, inner.target_reduce = (m, n), tgt_records
    return inner


# -- subgroups of BS(n, n) ------------------------------------------------------


def _vertex_labels(g: LabelledGraph, up_to_sign: bool = False) -> list[int] | None:
    """The one label near each vertex with edges (after greedy sign
    normalization; its absolute value with up_to_sign), or None when some
    vertex carries two, read from the edge rows.  A vertex with no edges
    imposes no condition."""
    if not g.is_reduced():
        raise NotReducedError("graph is not reduced")
    near = {}
    for ed in canonicalize_signs(g)[0].edges.values():
        for v, l in zip(ed.endpoints, ed.labels):
            l = abs(l) if up_to_sign else l
            if near.setdefault(v, l) != l:
                return None
    return list(near.values())


def subgroup_of_bs_nn(g: LabelledGraph, n: int, up_to_sign: bool = False) -> bool:
    """Equal labels near every vertex (after greedy sign normalization),
    all dividing n.  up_to_sign tests the BS(n, +-n) variant."""
    if n < 2:
        raise DecisionError("criterion holds only for n >= 2")
    labels = _vertex_labels(g, up_to_sign)
    return labels is not None and all(n % l == 0 for l in labels)


def embeds_in_some_bs_nn(g: LabelledGraph):
    """Smallest n (as lcm of labels, floored at 2) with G < BS(n, n), or None."""
    labels = _vertex_labels(g)
    if labels is None:
        return None
    return max(lcm(*labels), 2)


def contains_z2_k(g: LabelledGraph) -> tuple[bool, Decision]:
    """(contains Z^2, contains K).  The K criterion is evaluated on the
    given graph after reduction; the even-label clause quantifies over
    representations, hence the caveat on negative answers."""
    red, _ = reduce_graph(g)
    if not red.edges:
        return False, Decision(False, "infinite cyclic")
    loop = loop_labels(red)
    if loop is not None and 1 in (abs(loop[0]), abs(loop[1])):
        a, b = loop
        if abs(a) == 1 and abs(b) == 1:
            return True, Decision(a * b < 0, "elementary loop")
        return False, Decision(False, "solvable BS(1, n)")
    if modular_image(red).contains(Fraction(-1)):
        return True, Decision(True, "-1 is a modulus")
    if any(l % 2 == 0 for l in red.labels()):
        return True, Decision(True, "even label present")
    return True, Decision(
        False,
        "no even label on this representation",
        ("other representations not searched",),
        caveat=True,
    )
