"""Certificate bytes pinned: scripts/cert_digest.py's group digests for every
group before the embedding ones, and for the circle subgroups (the grid of
embedding routes is pinned by GRID12_DIGEST in tests/test_embeddings.py)."""

import hashlib

from conftest import load_script

WANT = {
    "chain 1": ("84eac4f17784127a609763c5cd0081290ce965125edadbd420f9ba2fb24e9ce7", 3),
    "chain 2": ("829be5f58a49c8814145aff3b006136ee170e739c48a51a70cbb887488a8aa7c", 3),
    "chain 3": ("5bbd47b9282fe514848d0282b4ed9c790b3a89e632b27bf7fcd4776c468fc376", 3),
    "chain 4": ("41cfac2707c5043e6f3f7a53fb09c20a8b4aa2025e5e79a7ed88ab284b502003", 3),
    "chain 5": ("bc6bf778f3823c3d44dc9786051b1149a97737d4d104cc8fe3a62fb877a61042", 3),
    "chain 6": ("b1859e800632de548ecd22d1eaf71d16cff64e025c4f885440015113aef66887", 3),
    "chain 7": ("9b2d426f6bb34dc51e70526251644606eec3d3f1c145b1c43002ca459552a1ce", 3),
    "chain 8": ("8d73ad3566f116f97bfcba8643eae43ac810678e251aab1c84dea6517a3ab7fa", 3),
    "family 4 6 8": ("92ed02d7d09ad68bca5ea1c80072ad5b775d4ed8795f5c5c5a49aa699e953b5c", 8),
    "family 6 10 4": ("77b96cda2e107adc95b7a3398f258e512a0a71df8caad6f1ce674c75596b29fc", 4),
    "family 4 12 5": ("7ce39a5e1bdec861a39ac7d060d9e85db4dba8123f246cc16c88b20b3b7b6306", 5),
    "family 6 6 8": ("e2bb0b0cbdb6274829dbe06084b27af35e41e583a40d4df2a78dc76ec92a0a0d", 8),
    "family 9 6 3": ("4a6c7389d8d98f637e9b7d88f97873653bf3b0bf47c325693560e18e55111724", 3),
    "family 8 12 3": ("9ffdeb89354d62e8c5127e669efe3646709df16959e751afb9969364b650606b", 3),
    "circle 1": ("81e164cd7e8203c526a9be03ede784ea7a535b163d4c8ec04004ce39fe6f2687", 1),
    "circle 2": ("f2766217e502c5320ee0f9bce000f5e5654b07c3cb24039c4081163980123934", 1),
    "circle 3": ("c8a01679ed14b89b85bf3eaa913e8859b5209e04426d432832a1f9414ec89a3f", 1),
    "circle 4": ("be6f52cfe710159b5f4ce421960f751411e98a7f22e78cb3354f1957f7a64234", 1),
    "non-Hopfian": ("71d22edb765eac8cafff5a86e43c865c2ea8a0bbc4ef52ba9666b3dd7e818875", 400),
    "moves seed 905": ("a7235be339b6ad9882e0eb59bd5f8e3d44c1ad177087e922873596f6f5d5ded2", 7657),
}


def _digest(script, certs):
    return hashlib.sha256(b"".join(map(script.cert_line, certs))).hexdigest(), len(certs)


def test_certificate_digests_match_pinned_values():
    script = load_script("cert_digest")
    got = {}
    for name, certs in script.groups():
        if name.startswith("embed "):
            break
        got[name] = _digest(script, certs)
    assert got == WANT


def test_circle_subgroup_digest_matches_pinned_value():
    """The script's "circle subgroup" group: circle_bs_subgroup on its circles."""
    script = load_script("cert_digest")
    got = _digest(script, script.circle_subgroups())
    assert got == ("5b4929804d8bbb32e09d261b20e81b0e8d80986195faaf3d9dd5572fc8d3fc5f", 4)
