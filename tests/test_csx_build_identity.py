"""Golden build digests: the CSX / CSX-Sym build is byte-stable.

Each case builds a matrix and hashes everything the build produces:
the ``ctl`` streams, pattern-table bytes, ``dvalues``, per-unit values,
every compiled plan kernel, ``rejected_units`` and the detection
reports. A change of a single byte anywhere fails the test, so a
rewrite of the build pipeline must reproduce the old output exactly.

To print the digests of the current code (only when the encoding is
changed on purpose)::

    PYTHONPATH=src python tests/test_csx_build_identity.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.configs import build_format
from repro.formats import CSXMatrix, CSXSymMatrix
from repro.formats.csx import DetectionConfig
from repro.fuzz.generators import generate_case
from repro.matrices.suite import SUITE

SCALE = 0.01
FUZZ_SEED = 1
FUZZ_INDICES = tuple(range(11))


def _pattern_bytes(pattern) -> bytes:
    return repr((int(pattern.type), tuple(pattern.params))).encode()


def _array_bytes(h, a: np.ndarray, dtype) -> None:
    a = np.ascontiguousarray(a, dtype=dtype)
    h.update(repr(a.shape).encode())
    h.update(a.tobytes())


def build_digest(matrix) -> str:
    """sha256 over every byte a CSX(-Sym) build produces."""
    h = hashlib.sha256()
    if isinstance(matrix, CSXSymMatrix):
        h.update(b"csx-sym")
        _array_bytes(h, matrix.dvalues, np.float64)
        h.update(repr(int(matrix.rejected_units)).encode())
    else:
        h.update(b"csx")
    for p in matrix.partitions:
        h.update(repr((p.row_start, p.row_end)).encode())
        h.update(p.ctl)
        h.update(b"|table|")
        h.update(p.pattern_table_bytes)
        h.update(b"|values|")
        for u in p.units:
            _array_bytes(h, u.values, np.float64)
        h.update(b"|plan|")
        for k in p.plan.kernels:
            h.update(_pattern_bytes(k.pattern))
            h.update(repr((int(k.length), bool(k.row_uniform))).encode())
            _array_bytes(h, k.rows2d, np.int64)
            _array_bytes(h, k.cols2d, np.int64)
            _array_bytes(h, k.values, np.float64)
        r = p.report
        h.update(b"|report|")
        for key, s in r.stats.items():
            h.update(_pattern_bytes(key))
            h.update(_pattern_bytes(s.pattern))
            h.update(repr((int(s.covered), int(s.n_units))).encode())
        h.update(b"|selected|")
        for key in r.selected:
            h.update(_pattern_bytes(key))
        h.update(
            repr(
                (
                    int(r.elements_scanned),
                    int(r.sampled_elements),
                    int(r.total_elements),
                )
            ).encode()
        )
        h.update(b"|encoded|")
        for key, n in r.encoded_by_pattern.items():
            h.update(_pattern_bytes(key))
            h.update(repr(int(n)).encode())
    return h.hexdigest()


def _suite_cases():
    for entry in SUITE:
        for fmt in ("csx-sym", "csx"):
            for threads in (1, 2, 16):
                yield f"{entry.name}/{fmt}/{threads}"


def _fuzz_cases():
    for index in FUZZ_INDICES:
        case = generate_case(FUZZ_SEED, index)
        fmts = ("csx-sym", "csx") if case.symmetric else ("csx",)
        for fmt in fmts:
            for threads in (1, 2):
                yield f"fuzz{FUZZ_SEED}:{index}/{fmt}/{threads}"


#: Extra configurations: sampled statistics and the unfiltered
#: CSX-Sym variant, which take different paths through the build.
_EXTRA_CASES = (
    "bmwcra_1/csx-sym-sampled/2",
    "nd12k/csx-sym-sampled/1",
    "hood/csx-sym-unfiltered/2",
)

_suite_cache: dict = {}


def _suite_matrix(name: str):
    if name not in _suite_cache:
        entry = next(e for e in SUITE if e.name == name)
        _suite_cache[name] = entry.build(scale=SCALE)
    return _suite_cache[name]


def build_case(case_id: str):
    source, fmt, threads = case_id.split("/")
    threads = int(threads)
    if source.startswith("fuzz"):
        seed, index = source[4:].split(":")
        coo = generate_case(int(seed), int(index)).coo
        n = coo.shape[0]
        bounds = np.linspace(0, n, threads + 1).astype(int)
        parts = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        if fmt == "csx-sym":
            return CSXSymMatrix(coo, partitions=parts)
        return CSXMatrix(coo, partitions=parts)
    coo = _suite_matrix(source)
    if fmt == "csx-sym-sampled":
        config = DetectionConfig(sampling_fraction=0.5, sampling_window=64)
        return build_format(coo, "csx-sym", threads, detection=config)[0]
    if fmt == "csx-sym-unfiltered":
        _, parts = build_format(coo, "sss", threads)
        return CSXSymMatrix(coo, partitions=parts, legality_filter=False)
    return build_format(coo, fmt, threads)[0]


ALL_CASES = (*_suite_cases(), *_fuzz_cases(), *_EXTRA_CASES)

GOLDEN: dict[str, str] = {
    "parabolic_fem/csx-sym/1": "56d999036026dd833c9b8198b8e5783a366f8be96f172786dab19c2b790ad9d3",
    "parabolic_fem/csx-sym/2": "2ca00968db2534381d19bfd44074532cd1763da787c26b4c9bc2491fa971acd1",
    "parabolic_fem/csx-sym/16": "89f854f241c6e3dc1dc4ce62ab2532851fecbc106c19fce93f5dfc8e37873faf",
    "parabolic_fem/csx/1": "bc9d3678f95704f1117b3c474aa4e69fea125df18cd262d08b8635a51d2f4499",
    "parabolic_fem/csx/2": "b0dd3816d061571d8d007c0838df3b4680752259792bb643245cf9cceacdc509",
    "parabolic_fem/csx/16": "484f3c5121e8c559d44ba2699f7e42686cec6a89880e0aa47d1a21779263d700",
    "offshore/csx-sym/1": "aebc7bff4f7173e44ec1ad41603eaa95e44d91408cb2432e3afb03f8eec9721c",
    "offshore/csx-sym/2": "ec840256be4877ec32d8de46881e25d990d2854453d38b5bf174f2f58c13a106",
    "offshore/csx-sym/16": "12997dd51c5fbc7ab6dae19103f2cffc4a2aed1bea2fdc74e6ce7625e056ca0f",
    "offshore/csx/1": "aaeb04cdb51080a145997ebf02ac2970ac939ad08f9ab4e1c686e061704df1ae",
    "offshore/csx/2": "4f33931f34180537f842eaf1db3db79563c89811a52720c4ce21ae3873b36f97",
    "offshore/csx/16": "3b2a19ca3d1dcbc9c331c91d902dd321bb4ef6de72bbdf60ecff1eb4eb0d89da",
    "consph/csx-sym/1": "c049e4468750ed801030b81c6fb10e473b01ea79ba8ecfaecfcfcfcdea301eef",
    "consph/csx-sym/2": "8946171e0c4a617b2c0e30f42d92cb379f6f7c94183146cbad24656d62d94597",
    "consph/csx-sym/16": "4bed808e29bff5cbeb00fe1f2ccfa5f511f3c715b5361d8efbab5eb88e3861f9",
    "consph/csx/1": "b9fff3c9cc1532b12f5f360ee0693dd37a628027f01c37473239534aa8e1f396",
    "consph/csx/2": "c55426c369e99dfda75a9ffe959bc105283451d52ced96332d77e5bd8cb30278",
    "consph/csx/16": "f746dfdd7eb3f80b48d9f2151782d3042583b6be7fa832bd4a2f33842111a75a",
    "bmw7st_1/csx-sym/1": "1c83b739783086bd176029e5b9948b4c04032ea2a211321e89205fff91f9c340",
    "bmw7st_1/csx-sym/2": "b611b6e3f03ce0db5b8b64533afc8d919a28fa61e232e0b0e1c289a9f648f225",
    "bmw7st_1/csx-sym/16": "0e31f6de5713f5e3e756d5869cdc41032590cd3946e5057d373b3c2aeac1299b",
    "bmw7st_1/csx/1": "0cc95e5b389e7bee12c46dcc542423fca870ff04ab0173ccda0ec72ecb07d101",
    "bmw7st_1/csx/2": "cb567cb88ceffee7ab6eec2814f98bebaececaef6b7746e670041665ce6dc798",
    "bmw7st_1/csx/16": "820a5354b2431be4fb9e18fdb0a29d55488486495c0b3581a6cdf609ef629d1c",
    "G3_circuit/csx-sym/1": "c6743dd23b5a085e846d69b1217aebc07e5b25b78058cfb9b8bc13f7d791bff5",
    "G3_circuit/csx-sym/2": "c5ff7f83f0bf2e83f800503147e9aeca034caf59a91dc2b84ccbc268db2a8350",
    "G3_circuit/csx-sym/16": "c90b28d854e639ca9ca5b2b0c145a5ec9f8faa5628c07a6f9fb324c1c12c17bf",
    "G3_circuit/csx/1": "3ef98e64d647e6a699efa88a5a7f961b64ffa766e351a017eade960941db27b9",
    "G3_circuit/csx/2": "cb9ec10fc2a51ffd3d99f13aaec3c1322b05888bd54eaa4bb187cfb7b731079f",
    "G3_circuit/csx/16": "054340e56f94685d48011aa154fd22252934c10a79c6e5ca4663b377f33086c5",
    "thermal2/csx-sym/1": "f07caef46c9ab4dfd32e02b28d7bb5d8896f814fe53c22d28b9774fa5eecca00",
    "thermal2/csx-sym/2": "49c0b9052fc0ac365955fa61f9b1de5f1d7243cc8cc5fb7663ea03d9b460ee7b",
    "thermal2/csx-sym/16": "167155c1eb5aae66d76c1b36d94764fadda0ec92645f760a2a3d088bb9415b67",
    "thermal2/csx/1": "8852a0b554d8dbb9261bf00871aa21526d18b637fde972d3e23a2e45c1843f86",
    "thermal2/csx/2": "80c258d62baf9e5681706563717d7976b7771fde8f3bc0820b7b156607926419",
    "thermal2/csx/16": "b235ee0abd7bb9fb942aa9f868398346df5cb4d66acb6df22eed326c190f6db8",
    "bmwcra_1/csx-sym/1": "92dbd1a5758c86efc380d679b48e6bffe1bdce3665d4980133ed80cbfcd9424e",
    "bmwcra_1/csx-sym/2": "a146df19d4bdca17f3452e801e49b4e2581c9efc94c23e72d360f258425551b7",
    "bmwcra_1/csx-sym/16": "f61aff56ba98f79a20c43269453a50355b6402f3fb9f850243ef0778c3d3a1a1",
    "bmwcra_1/csx/1": "532a8e0261aa7103bb97824d4fca0bc2b3c61ff7b21a3e19cf1ccf013eb6b62a",
    "bmwcra_1/csx/2": "4ed9cdf39e7673d181cf6352b724fc2b8579014dd49fd361d9e350c70889e9ba",
    "bmwcra_1/csx/16": "f056eacecd79a36d15bfe8e07f184080c793eeb36a921318babe8fea7061ecb4",
    "hood/csx-sym/1": "80ca2bdebdcc50bfe5047c6bf16eb55fb99bb3e8a81b2e0c11a8ddf08cdec432",
    "hood/csx-sym/2": "65236e367f38bd6a498c253e5e46ea91e98cb11c7fafc8319b16aae4acd4645e",
    "hood/csx-sym/16": "85ed8408b2de0c2e6df8f8d92b2728a6c62056da101c4def14bdf1925e991f9e",
    "hood/csx/1": "7f76acee44dd1c9fc84f351de4563073c58523d137994665af7981afc86f62b4",
    "hood/csx/2": "f49f02f0e615bc0a9119c583fb5969fd757f48cc65430e8d89357bf2a7993cf4",
    "hood/csx/16": "1e447fcf1a29f2c798a48cb6d110960fd20374593a1b19e5068b78ecb5925274",
    "crankseg_2/csx-sym/1": "5316d7f4d56b54449baf6bb80b2d79b7dbc548b2853803fe984b4c1fb609e7de",
    "crankseg_2/csx-sym/2": "5590951730a8cece4a14e7baa8026f3e6ec49e5700dae03d5abef3e1c13821f3",
    "crankseg_2/csx-sym/16": "8e3ce744f2e3b6f60fb94db588336f5e054c4d39a7f85a88ad0881f9367b76fe",
    "crankseg_2/csx/1": "41e9a88f4007dec882a410fc96eef7befba6d28bcfe8950c08ffe7bfd189c6b2",
    "crankseg_2/csx/2": "4021b3bf33f3492f589dd3cc7ef82c0a0afb95e2b236bb889b83e42588bf88b3",
    "crankseg_2/csx/16": "effebf1b148ad6afc87986a732713cc9f5035e50fa6a3ae84e864d431eda0a0d",
    "nd12k/csx-sym/1": "903e64a119e3f41d0056fc9f6d6bcefdb6ade18356a5b54e08b5ad955afa7d05",
    "nd12k/csx-sym/2": "89b8b34e9b508bc5e5c7db764996b711311188703537aaa48bc8de5fc5009d50",
    "nd12k/csx-sym/16": "c87ce65cea555680120d3d83ad9537fb5af07adbad1b2785f30cd048dd36b2a8",
    "nd12k/csx/1": "0190efc52ce000a2d8fcffc21e2be525e94489e773f02e1d970a6b2f88bb88bc",
    "nd12k/csx/2": "a5ce8be476001e15276ab4f06e7490700277723d2ecc4d2fe01008a2eaa1cfce",
    "nd12k/csx/16": "92ffcbd420fb03eeba82c8ab6d512df8c3f2d7a0aee1be148264b2cafeb94815",
    "inline_1/csx-sym/1": "e3f62b106172d78f03a73472c8197abd53f99811e243214edb4353884742f677",
    "inline_1/csx-sym/2": "3486b1b532d759df9af69bda98b7bd44ce774ba0445e291e2b293377e0ca1467",
    "inline_1/csx-sym/16": "f660596c00e924d37db0d84cd1c2c4b988742f235a024a6d6d33a76b2b7ef77d",
    "inline_1/csx/1": "2a3389d4035225c8dfcaf1eb4ccbd67fef7125e65bf1a45bbb51a1d3517cf03c",
    "inline_1/csx/2": "fbab002aa272af4da721fbfcd9f62cc626105f193636dc35109e503f5fdf34b9",
    "inline_1/csx/16": "0bb7ff0c7a76209ca8ea3c5f13aa158c5893629b9ac95253c02af92c93f4750d",
    "ldoor/csx-sym/1": "c0728632b3f8be53fd50e74cf17394c2b2011b873336620252cdf614cb8d2ff3",
    "ldoor/csx-sym/2": "5e56f240090637e8fda2c9c78e9ca7b8e5a0bee9fbb1506b957c1d5d7ae53373",
    "ldoor/csx-sym/16": "0968ab353a8344290219ca2172bf10f28ba2003c34fec2d6bd365ab32db2d873",
    "ldoor/csx/1": "8f80aefa998f3d5e274e2b8657957be04bf1f50eb7728767c5716999becaccef",
    "ldoor/csx/2": "13f8a1c2d47c384a94342a811d85478499305c0f49587100d21bfdec1599543c",
    "ldoor/csx/16": "719ef67edb842fa5eb85dcd89f917acfda944e1c7a92118154fb708fd6430b87",
    "fuzz1:0/csx-sym/1": "ec9caffcafc05d74e47d9f7304d146dad76f91783f79b60b3650f6f91e590a09",
    "fuzz1:0/csx-sym/2": "eaffa94d5819fdca77de61a90edef7ceed7ad62d433c4f6cb648b794050ecec9",
    "fuzz1:0/csx/1": "9ece04a304328fdf6995ff807c7f493d065e049b04fdda0212ae9461b82afef2",
    "fuzz1:0/csx/2": "3d24bb5f46213162928ec5557fb91073e33bd21ac094ba28c77d87cb14a4dcdb",
    "fuzz1:1/csx-sym/1": "5d4508109704797916f5ce2cd28e7ea2687d13827d45d839b62c5ea718be5795",
    "fuzz1:1/csx-sym/2": "63230b85b5d571941cb269c66b70be9efe3687ab8c24bfacbc676cce12528fff",
    "fuzz1:1/csx/1": "dc36718dfc44be47cc0d1d846d5c520296649eba98642e80caa7ffcbfd2ab980",
    "fuzz1:1/csx/2": "cdc9222fe3dfa98a516e50227186bb78a08a26ce3b68a0cfb74caf9156c7a483",
    "fuzz1:2/csx-sym/1": "55415a5b5072cca978a52e4829a16bb2c56a37124dbc59cf1030853ad539c43c",
    "fuzz1:2/csx-sym/2": "3bb056337f5d3c03427652f48c7b6c014f822c0fd0213285f42e593b047a139a",
    "fuzz1:2/csx/1": "956912ca0d8efb2c1370acd1bdd17f529c5a88686eec90a9c851f51e6519a756",
    "fuzz1:2/csx/2": "5e026d7816e84bebdfbbe83b684ba5342101046972f51924a016be3c2d8b4edb",
    "fuzz1:3/csx-sym/1": "82eb1c68376d4b8945ef10533f920bed57959c1c84eb633cf6b01f99a2d4840b",
    "fuzz1:3/csx-sym/2": "703ffa428367f011bc5207d3220d48cd75865c59c629ce435b23da20cde619c1",
    "fuzz1:3/csx/1": "30f676410678e7eb3a07863931c2d66a55089453babff7e532624ac27a08a35a",
    "fuzz1:3/csx/2": "8ff3883e934692b43eda49ccb8de2e3a5da08e609e92515c50960f51194a5165",
    "fuzz1:4/csx-sym/1": "a9d02dbc7d3333fa843713869121e27b43e6cd595559e089e97ea96625fb248c",
    "fuzz1:4/csx-sym/2": "ea3be771d82c4bccdb397f1a7d521ccefaed150524cfda3505fd5c90a68bde35",
    "fuzz1:4/csx/1": "fc2b041fff7c11fa15337f34af1532a1a442ff0b7a9c1272210e263c794ae354",
    "fuzz1:4/csx/2": "ba2a177689882e383804605546b2df128203798a1b12afa172ae6e8b377ba6d1",
    "fuzz1:5/csx-sym/1": "a96dc8807378a3f0ce39ff8f8a9647c17619eb5927c484e93c4e03a0897ce1e9",
    "fuzz1:5/csx-sym/2": "0b66383bd7344ea98a4902708c77e6907be0f0f115e04ad98570fd2e98114af8",
    "fuzz1:5/csx/1": "e6e38b10a5bbd090a22fda1764fcb6d38bfeccf18a80710a0199387fa3fa90e3",
    "fuzz1:5/csx/2": "0f977ee290d746184dd46fe35ad1b32f578cb18af3a75f59152cef0240bde819",
    "fuzz1:6/csx-sym/1": "ccea3585e2cf488ebd8a1ef20006d9ee56e59059c568f2e2b9130ecfc2a1de49",
    "fuzz1:6/csx-sym/2": "590ea04405f7f24eea2320cf3cca052fc74e4f3f7f8bcaaa6caa8789e463d13b",
    "fuzz1:6/csx/1": "3704a4a39d04f682bfd516dec1d8bdff1e9e98e2baa7a415274aa7d12751f1ed",
    "fuzz1:6/csx/2": "78d586ad722cffb0077d7c2d7811ba03fe4624484d17ad09711fc7e7f8101821",
    "fuzz1:7/csx-sym/1": "c177574242bda534cc86e73a679501319736d808f844c4598d0bb48bf5a1274c",
    "fuzz1:7/csx-sym/2": "bc6750db01402708dc16b09970c669fb8d0647ab4a8f1471a270a2829e0965ee",
    "fuzz1:7/csx/1": "135dd88b95a31e4d8e8d4ba0f1e7559dd3d557a6f7a80aa97f7de572d9193eca",
    "fuzz1:7/csx/2": "b181a21b2396012f5da0543d7551cb39abc3664e2970a5bfddf259348e4f9277",
    "fuzz1:8/csx-sym/1": "a683f1c0a50796ec5ccf75254a6899854a8bbe4fcd872c0f7287b08a4ccb0584",
    "fuzz1:8/csx-sym/2": "3edbe67ec9b4a28b040299ebcb64ca523d4f8bcfd65cf0384ed95b328a60c7c2",
    "fuzz1:8/csx/1": "a4813dfa06391d01fe44b4a75212dba010ccf596cdabd8e9f60a18f48ba79a74",
    "fuzz1:8/csx/2": "bec44fcab4b2a990776d4bc2675ed1bddf1b6d015389ee6be25d0c5b96531bf4",
    "fuzz1:9/csx/1": "3c0faf3fd93be1bee350f5bdf78e73dff2bc045004124ce9f9c4e1c70ce03fd2",
    "fuzz1:9/csx/2": "2850764522dd0c19910003d75ec1606b025a37a7ac2f5e676410671ed640843e",
    "fuzz1:10/csx/1": "107b03cddca13465136442558db22c64c69d9e76ee39f921494fc51baad2f668",
    "fuzz1:10/csx/2": "9d6788430b929ccdc4f806dfeb70040b46d5c57829e6215d0869de6c7fbc74be",
    "bmwcra_1/csx-sym-sampled/2": "7458cafcafe0afbb49dbeb63584aad9550f0bbf3e0e3cba7c51ac8637f84f28e",
    "nd12k/csx-sym-sampled/1": "f375235ae1d0439ebf0a478ea09d95594fb07156ae7da5afa55ca53e06b98e74",
    "hood/csx-sym-unfiltered/2": "1051f231a4e8b8074f7d293ced6f4821a985822d38e79c1537cd8f1701927587",
}


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(ALL_CASES)


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_build_digest_matches_golden(case_id):
    assert build_digest(build_case(case_id)) == GOLDEN[case_id]


def test_digest_sees_a_single_byte():
    """One flipped value bit changes the digest."""
    m = build_case("hood/csx-sym/2")
    before = build_digest(m)
    k = m.partitions[0].plan.kernels[0]
    k.values.view(np.uint64).ravel()[0] ^= np.uint64(1)
    assert build_digest(m) != before


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for cid in ALL_CASES:
        print(f'    "{cid}": "{build_digest(build_case(cid))}",')
    print("}")
