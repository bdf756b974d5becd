"""The array-backed incidence store: every construction keeps its blocks and
their order, structures compare and hash by their blocks, errors name the
same block as before, design files keep their bytes, and the tables'
largest row stays within a traced memory bound."""

import copy
import hashlib
import io
import pickle
import tracemalloc

import numpy as np
import pytest

from eaqldpc import eaqecc, formats, gf2
from eaqldpc.designs import (
    DesignError,
    IncidenceStructure,
    build_sts,
    build_transversal_design,
    develop_cyclic,
)
from eaqldpc.eaqecc import BLOCK_BY_POINT
from eaqldpc.geometry import build_geometry

# SHA-256 of each structure's blocks, one line of points per block in block
# order, recorded from the tuple-backed store the arrays replaced
GEOMETRY_BLOCK_DIGESTS = {
    ('AG', 2, 3): "269e868b2d1bb05f7d1c4efe7f4966a6ca6773ca832d9e90940c149b997cf955",
    ('AG', 2, 4): "3648efa5d2f053914bbbc65f4604222199205387d195df3e412f8e2166611f3d",
    ('AG', 2, 5): "42330a32b6d77e4dc858a2dd1260f30c323aa69dd0de1c3fde37d2c2ad79d59c",
    ('AG', 2, 8): "1510df585494ee0c5e65387823a93306f6c311b342bff14116bc374d3070cdcf",
    ('AG', 2, 16): "2422d49274b96c0005ac20fe4511743726e831399be925a220a0cc7775d3a487",
    ('AG', 2, 32): "a5e106d7d82a55d184d410cebe63676a6d529b9710625037fb9a2769cdeacfcf",
    ('AG', 2, 64): "1901835b0c20ba3c01bbf2d69e1a37fc0d13d4484951a89b37143096d9f9b89e",
    ('AG', 3, 2): "88b498aeb5cae4a775338440d5fcea6d0f35a369d187faa9be8184f6ed4d69f8",
    ('AG', 3, 3): "903ae691bd1b2df2764410ae31957513bf6877f435d579cd8a115c7a1b5cf315",
    ('AG', 3, 4): "be9a13830c04bd11cd6fde93a39fc2cb6c6fbdd3b4751ef5d9f8225dea91a8c7",
    ('AG', 3, 5): "9b2a07b07575b8fc72099db48d99392c85e5c32acc217daeb26624b91c09ac06",
    ('AG', 3, 7): "f58ddc87ea1877255d5bb3e9c744949840278667bcca6f0d6587b6a71ae03dba",
    ('AG', 3, 8): "2d9538d8f9c6b5a9e289105ff769814bb0c07c607ee28e70f61fa6696722b4d4",
    ('AG', 4, 2): "91914ac71812062f1e67aa7b08ad21e863bbb206354fe47e736cbcad56c51d55",
    ('AG', 4, 3): "8ac1336c334acb6a35e3517dd0dfd5855ef209d2c57fd8c907a19bc3f778f975",
    ('AG', 4, 4): "7676fa74fa6cb8f1ca82e98306adc1f1e3f39ec06804cb599bbcd1e68bb71328",
    ('AG', 5, 2): "c38d7c3eaa458ea37471e5b2b4303699e5b24f5a6a3d0d0ac13535764bd50470",
    ('AG', 5, 3): "683114006e7a133bc5892f1313209b1d7b2600ddca48fb3565e5f04f1d6019a6",
    ('AG', 6, 2): "735f819a92c5f1ba993260ae63c8a47894c67eb86229d7c0410732855c95b35b",
    ('EG', 2, 4): "6160ec5f438919d6599735d1f8ca25025ef2197e0dbd70c35d9a0a67251bd76d",
    ('EG', 2, 8): "10c5ca0b8c4641832f305bbbc3e64f0a57a718b3d8bacda2f48c31827c358bf2",
    ('EG', 2, 16): "45a7d84fe6bd95f37b54e7deb735933a932228e1deeabbeb7ffd4ee86c4a01b9",
    ('EG', 2, 32): "fcc99b17de9145bd46bb4f1fb6748c8ebbfc940f59c477dc5ccc3ec65ea47557",
    ('EG', 3, 2): "b5d412e6f41a4e80c3e81410e0ab38d09fc3fb7d5d230365111486ca4e294015",
    ('EG', 3, 3): "062ecf34a136a8b2b2b00755db702fc3d6e8ddb89168bbe13e47dd25d88d56fe",
    ('EG', 3, 4): "2b2f59d221f22348aedefe9dec1a3bdcd7faed827094cd993c5fa02f5f44ae1b",
    ('EG', 3, 5): "1017afd1f4e03e93c7c47027231f6ee810608050f877a71df86714d589262791",
    ('EG', 3, 7): "14f1bb0d08d6fad099ca46f5f3617448d23813c6ed6149ec4b7f5fca6c9092fb",
    ('EG', 3, 8): "e4cefe627dd265302bd113f5b0153b16685aaa3732a5a622c47ea2dec91928e0",
    ('EG', 4, 2): "ab05271cca6a6c6a4c797cf9769d8b5940c400c0c1fce40fdd63b6f30e2486f8",
    ('EG', 4, 3): "64a9f1f98c78062b02405f5544fe893199de3fa0d285c0cb0cd3e2e891f37e55",
    ('EG', 4, 4): "268e0033e0ec71fbe765ed2fecbd60f666ab2cf2635c73a90e383353e0c2bf99",
    ('EG', 5, 2): "2612d8748da7d79e67fb7449fd9f832e9d84b643a445d29c126e2cbb163d5f30",
    ('EG', 5, 3): "b99827008fc1db83a0b59c5563b45f76ab07e86de5a009f9f813678028af4771",
    ('EG', 6, 2): "f7fdab14668a2cb416fc332d5bef5f4572aa17ee76f394b2ac45ea43ea945393",
    ('PG', 2, 2): "72535b8642ed3e27f0d99b1e9563240c4411e226c658a3a97b27038e607edf05",
    ('PG', 2, 3): "5b55b0d7c9c52853415f519ec7e305e027964fd92716009db3aefac4a310d4c0",
    ('PG', 2, 4): "7a39cc16195b0a37695be4fbee0ae87b11c56bfa30e4c4d4f1744e41988a1ea9",
    ('PG', 2, 5): "89ad8fb3a1a56a47fc19f75cd877e0fd430069bf0d97fcbed2899e68d904b413",
    ('PG', 2, 8): "266d243d0a81881f8da357d607c846ed47f4b70a69c50eab2351682706ff0b5c",
    ('PG', 2, 16): "57fe855e4d4ce2db8254ff3ba59b2085876cfcff14eaa4d9fb06071689471677",
    ('PG', 2, 32): "d252c4802c56c8963c11d62d7e90f28821ea5eb7d3eb8578958ab2d7a958aeaa",
    ('PG', 3, 2): "59564bab1001160107c30db8db5ae1993c9c075a20226118ee2184920929d219",
    ('PG', 3, 3): "00df15e70ff35e0a10bf063a0e48b06092b65073cf99f18810cde00cdb8973da",
    ('PG', 3, 4): "5660349d50d0d4bfa462bf8c938d7a320ea9691c15ee09a62793d82dd39cb0ba",
    ('PG', 3, 5): "8cdd12af1b779a4fd19df15697e7c97d6e552086696447f5a0657ff82baed0f8",
    ('PG', 3, 7): "00a013fa9c986436453cd219746b7c0bc4105890dee4b7425809c6a30a1d871a",
    ('PG', 3, 8): "f68992122041a760950097ce44cd7f11484410b58c415ad36979d87f69cdfdc1",
    ('PG', 4, 2): "d097cfd8827166dfc1ceb51ea2566cfe32bf7fbd20eaa3158651037bc59acfd8",
    ('PG', 4, 3): "33d6870b79ef7373c56260e5e44ce79264d140cb6c7ea02cf4b5986f4a6a1104",
    ('PG', 4, 4): "79c4206502ff139c6415332abc56152fbed1d846a39f215ecff023fe24d471f1",
    ('PG', 5, 2): "702b7d61c3f5ff0029ba660946ba105f7f6820b5fa7e385b0b027d5f29e7803a",
    ('PG', 6, 2): "2f05cb77c657aaf7526e8135b286f21482fabfad6267915ebb7d5e0b82c94972",
}
CONSTRUCTION_BLOCK_DIGESTS = {
    ("sts", 7): "7c266045f5aaf40b7e3cf9ac95f557b4de54c8314b34a611871fb0d3a0a9ee7a",
    ("sts", 9): "60e642facd32f460e72f54543735e62961b7e2efb1dba5bc99e94507620e5d68",
    ("sts", 13): "c2914dd9c3eaecde4c2ff60d648bf04c44b87816b4084cebcd6655f18561d6ff",
    ("sts", 15): "f06b9a70aaca164c72137b0232f5e13a7595f7e0d9d0fd24ba5099a48ce39ec6",
    ("sts", 19): "39f5a639b801e1e60e1b55c9199857b58a53f349ea309c0d35b0721364062726",
    ("sts", 21): "46fb19cce27ea551844c17185b914987f8655a655aa3abc730c96ed9a2a3984f",
    ("sts", 25): "772da3fc8b4c21245b13ba2fe2bf1bfe18e549fc8c17559f992af9023b94ff73",
    ("sts", 27): "11ef2202ad86ad0649c2b9b99ccedaea18dcf07b290be7cc7385d98bdbb5a820",
    ("sts", 31): "a283a88a44a98325694a8b7a46517143a403a8005e8bb516b0cd499b3a7c3448",
    ("sts", 33): "7cebfc4b412fdd815e09c75b37e44265e608aaddd972e2c8a816901de07faa00",
    ("sts", 67): "503498427bf280fe57f81338da030a3deefaba875b693fa63c384680a18b7a5f",
    ("sts", 69): "eaa5d3a61fc08063fb7df73656fc897b25f83a798d4219f1278316ea84a88c25",
    ("sts", 99): "e4747c78d9ab912bb831aea32fff0186b8472eedb5f3766dccdcabadd8c473c8",
    ("sts", 97): "b10b1d4c664f5f64f680d051f35d4abf9dd4ea4c4bc822ce9517dcf58dc91c88",
    ("cyclic", 7, ((0, 1, 3),)): "6f62f187485bb07cf9f72f12e2bbf642061c4e12a2a2eeadb09542c263dab07b",
    ("cyclic", 13, ((0, 1, 4), (0, 2, 7))): "20df4b3b19594cd7ed8b532d3d8786d2ce2c1f75e54185580f841bc627d99be7",
    ("cyclic", 9, ((0, 3, 6), (0, 1, 2))): "e7fbf5e58a19117d59a0c067f140c4b13896436c11d1c6fd316284091c36d32f",
    ("cyclic", 21, ((0, 1, 4, 14, 16),)): "91fe732cf4fb772bb5db2113dba1815999d75565e666dd2fbcf3f8c85d20ba14",
    ("cyclic", 12, ((0, 6), (0, 4, 8))): "aff27feaa7b1290be3b733613e3dc0f390f13279b02a162cc52a2799275e1349",
    ("cyclic", 31, ((0, 1, 3, 8, 12, 18),)): "3c68d10bd9e7f40d275788cfe531f6b7188bb4f080cd0db097148cce0d6157bd",
    ("cyclic", 10, ((0,), (0, 5), (), (0, 1, 3))): "c9f798a807d857ac388aae4cbf9a6ea01cdd83c6151429997a608e3378d9c195",
    ("td", 2, 2): "7807f829b4b1dab6ff91934bd3a382c8bcbf9f395f9c54ed3088db8d72a64cc2",
    ("td", 3, 5): "202fd69984d7fac139cd882ee2e6ce687caeac7235ebac656ad6d955044204ff",
    ("td", 4, 4): "761d8f21c120dbaa1115a28cf45e4506d6152c2434a337611df13561dbeff7d3",
    ("td", 3, 8): "5f65a3edca7faa1e4f140a99ca2f1937b6c30febe0be3983a9cd953166eb8540",
    ("td", 5, 9): "e5c24b44353d62d638af18ef0ebadd8e5f4cb8738e6e6f53a42142e851821ba6",
    ("td", 4, 7): "ce8e0fdb62ebb8a2419bcf722fdb6ec0c05320271bdb62f7d0d7c9e9588ad013",
}


def blocks_of(S: IncidenceStructure) -> tuple[tuple[int, ...], ...]:
    """S's blocks as point tuples, in block order."""
    return tuple(S.block(j) for j in range(S.b))


def block_digest(S: IncidenceStructure) -> str:
    return hashlib.sha256("\n".join(" ".join(map(str, b)) for b in blocks_of(S)).encode()).hexdigest()


def test_every_table_geometry_keeps_its_blocks_and_their_order(cache):
    got = {key: block_digest(cache.geometry(*key).structure) for key in GEOMETRY_BLOCK_DIGESTS}
    assert got == GEOMETRY_BLOCK_DIGESTS


def test_constructions_keep_their_blocks_and_their_order():
    build = {"sts": build_sts, "cyclic": develop_cyclic, "td": build_transversal_design}
    got = {key: block_digest(build[key[0]](*key[1:])) for key in CONSTRUCTION_BLOCK_DIGESTS}
    assert got == CONSTRUCTION_BLOCK_DIGESTS


def test_structures_compare_and_hash_by_v_blocks_provenance_and_groups(fano):
    blocks = ((0, 1, 3), (0, 2), (1, 2, 4))  # lexicographic, two sizes
    a = IncidenceStructure(v=5, blocks=blocks, provenance="x")
    b = IncidenceStructure.from_arrays(5, [np.array([(4, 2, 1), (3, 1, 0)]), np.array([(2, 0)])], "x")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1 and {a: 1}[b] == 1
    assert blocks_of(b) == blocks and [A.shape for A in b.arrays] == [(2, 3), (1, 2)]
    for other in (IncidenceStructure(v=5, blocks=blocks[::-1], provenance="x"),
                  IncidenceStructure(v=6, blocks=blocks, provenance="x"),
                  IncidenceStructure(v=5, blocks=blocks, provenance="y"),
                  IncidenceStructure(v=5, blocks=blocks, provenance="x", groups=((0, 1, 2, 3, 4),)),
                  IncidenceStructure(v=5, blocks=blocks[:2], provenance="x")):
        assert other != a
    assert a != blocks and not (a == 3)
    S = fano.structure
    same = IncidenceStructure(v=7, blocks=blocks_of(S), provenance=S.provenance)
    assert same == S and hash(same) == hash(S)
    with pytest.raises(AttributeError):
        S.v = 8
    for T in (a, S, IncidenceStructure(v=5, blocks=blocks[::-1], groups=((0, 1, 2), (3, 4)))):
        for twin in (copy.copy(T), copy.deepcopy(T), pickle.loads(pickle.dumps(T))):
            assert twin == T and blocks_of(twin) == blocks_of(T) and twin.groups == T.groups


@pytest.mark.parametrize("arrays, message", [
    ([[(0, 0, 1)]], "block (0, 0, 1) not sorted/distinct"),
    ([[(0, 7)]], "block (0, 7) out of range for v=5"),
    ([[(1, 0), (2, 3), (0, 1)]], "duplicate block (0, 1)"),
    ([[(0, 1)], [(0, -1)]], "block (-1, 0) out of range for v=5"),
    # rows are sorted first: (0, 1, 9) precedes (2, 2) and (3, 4)
    ([[(2, 2), (3, 4)], [(9, 0, 1)]], "block (0, 1, 9) out of range for v=5"),
    ([[(4, 3), (1, 2)], [(2, 1)], [(3,)]], "duplicate block (1, 2)"),
])
def test_array_built_blocks_are_checked_like_tuples(arrays, message):
    with pytest.raises(DesignError) as err:
        IncidenceStructure.from_arrays(5, [np.array(A) for A in arrays])
    assert str(err.value) == message


def test_largest_table_row_chain_traced_peak():
    """Building AG(2,64), its 4160 x 4096 Type I H (2 MiB), rank_value and
    the streamed gram_rank peak at 7.6 MiB traced (15.1 MiB with the tuple
    store and full-size elimination temporaries); the bound is 9 MiB."""
    build_geometry("AG", 2, 4)  # first-use imports and caches
    tracemalloc.start()
    try:
        H = eaqecc.oriented_matrix(build_geometry("AG", 2, 64).structure, BLOCK_BY_POINT)
        assert (gf2.rank_value(H), gf2.gram_rank(H)) == (729, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def test_design_files_are_written_block_by_block_in_order(fano):
    """One block size is written from its array, mixed sizes per size
    group; either way one line of points per block, in block order."""
    mixed = IncidenceStructure(v=5, blocks=((0, 1, 3), (), (0, 2), (4,)))
    for S in (fano.structure, mixed, IncidenceStructure(v=3, blocks=((),)),
              IncidenceStructure(v=2, blocks=())):
        buf = io.StringIO()
        formats.write_design(S, buf, comments=["c"])
        lines = ["# c", f"{S.v} {S.b}"] + [" ".join(map(str, b)) for b in blocks_of(S)]
        assert buf.getvalue() == "\n".join(lines) + "\n"


# SHA-256 of write_design's output, recorded from the tuple-backed writer
DESIGN_FILE_DIGESTS = {
    "sts15": "5484694c2047efb3ad0d3b8c9d10f0e81f9432ce0b3d100f8b4cf5caabfbb5e4",
    "cyclic13": "2298e307b4667f4aeea36e77e1bddb78467c7c9f8fbd0e6090ead7ef4c9aad90",
}


def test_design_files_keep_their_bytes_and_read_back():
    """STS(15) has one block size, the development of (0, 1, 4) and (0, 6)
    mod 13 two, interleaved in block order."""
    for key, S in (("sts15", build_sts(15)), ("cyclic13", develop_cyclic(13, [(0, 1, 4), (0, 6)]))):
        buf = io.StringIO()
        formats.write_design(S, buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == DESIGN_FILE_DIGESTS[key]
        back = formats.read_design(io.StringIO(buf.getvalue()))
        assert back.v == S.v and blocks_of(back) == blocks_of(S)


def test_one_size_design_file_is_savetxts_bytes():
    """STS(1023) has 174251 blocks, so the writer formats it in three
    chunks; the text is what ``np.savetxt`` writes row by row."""
    S = build_sts(1023)
    assert len(S.arrays) == 1 and S.b > 2 * (1 << 16)
    buf, expected = io.StringIO(), io.StringIO()
    formats.write_design(S, buf)
    expected.write(f"{S.v} {S.b}\n")
    np.savetxt(expected, S.arrays[0], fmt="%d")
    assert buf.getvalue() == expected.getvalue()
