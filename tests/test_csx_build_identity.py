"""Golden build digests: the CSX / CSX-Sym build is byte-stable.

Each case builds a matrix and checks two digests against goldens:

* the build digest hashes the encoded format: the ``ctl`` streams,
  pattern-table bytes, ``dvalues``, per-unit values, ``rejected_units``
  and the detection reports;
* the plan digest hashes each partition plan's ``(row, col, value)``
  triples sorted by position, so it pins what the plan computes, not
  how it is laid out.

A change of a single byte anywhere fails the test, so a rewrite of the
build pipeline must reproduce the old output exactly.

To print the digests of the current code (only when the encoding is
changed on purpose)::

    PYTHONPATH=src python tests/test_csx_build_identity.py
"""

from __future__ import annotations

import functools
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
    """sha256 over every byte of a CSX(-Sym) build's encoded format."""
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


def plan_digest(matrix) -> str:
    """sha256 over each partition plan's triples sorted by position."""
    h = hashlib.sha256()
    for p in matrix.partitions:
        rows, cols, vals = p.plan.triples()
        order = np.lexsort((vals, cols, rows))
        h.update(b"|partition|")
        _array_bytes(h, rows[order], np.int64)
        _array_bytes(h, cols[order], np.int64)
        _array_bytes(h, vals[order], np.float64)
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
    "parabolic_fem/csx-sym/1": "ec1e44fffc2ce006d29cf86fea866445aecdfa8b547359df58a10c107f0f60df",
    "parabolic_fem/csx-sym/2": "c00e25a31c978aa08b4898ce696fde413a6fa4127b91dae958907aee60dc3f28",
    "parabolic_fem/csx-sym/16": "3bdd9609cfb211e6c589eb97dc56f8d79a2a1a00a5c27835d988abc14eb266e3",
    "parabolic_fem/csx/1": "ddf51d1dcb484df29aa5c05bdbfd6d830f0f6c094b13aa6759132966eb7408ef",
    "parabolic_fem/csx/2": "a4504484fb7b7c149861ce97f115aa2e9498d7aac6b27f55b6736af52d12241f",
    "parabolic_fem/csx/16": "db88f8d6d69494d1c4d78ecd348e00b79fa1cdb6c4831651982bbca9185bbf84",
    "offshore/csx-sym/1": "336ad2edbe3804b4e6e76526cd20e393963cacfd7acaf4de766ee46a20837499",
    "offshore/csx-sym/2": "9b9c35ecf1de2eb91cb304be5d7fdf246788e5106ec58064a7609246af5739ec",
    "offshore/csx-sym/16": "7096fe202eacde0b5b81dc0a3d923aa2f3783419bd542e0ec730b211dea441f3",
    "offshore/csx/1": "3693b27a0edf7b289e97834db09aa06c2fd43ff75a9a90fe75c6365ba75b2258",
    "offshore/csx/2": "ded1fef40c1c32ded0cb8a7b9bc0d316d5ac620122946b2198b9f1606ad90fb3",
    "offshore/csx/16": "ab22c54787c6e1de27bc7b4c878169f4c00648610062e9f1595b4248321f8709",
    "consph/csx-sym/1": "3b98ff8e5762565c0ca0985ef3a3a0bf5cf5b9e5ba3dd89ede3b31d5be3bb1f1",
    "consph/csx-sym/2": "3782485eac9a58edc0241d47ea6f9bd951b2a6a3bac882a4ccaa2eb7e18738bf",
    "consph/csx-sym/16": "5478e35f57759ab7c15467d28eb87b1c15861594c5aba2f7bb8e62ae2fc4160e",
    "consph/csx/1": "a4219ef5afde069f9c2eb486f91ccb9c40fd62861cfc3c6ceae0beaa5fcbb17d",
    "consph/csx/2": "0f4ac3c9b4a9aed8ec36e243ed6b4fb4ccfb359591eae441daafb18b86f9d65c",
    "consph/csx/16": "47c03588bef7a75b42090f447c9f5a9057a2b09a0c8cbad9d60a15596343db0f",
    "bmw7st_1/csx-sym/1": "c67ef8310a0a432d55fbebb66cb61c3f04ef73886e1f71e2e4780a38ceacc3c9",
    "bmw7st_1/csx-sym/2": "9a301bb8c2e9005cbd8347d5d799e430a5966391b7f46bbddc20aa4de921dfbe",
    "bmw7st_1/csx-sym/16": "1ad534c3feff4ce7b4fc5e560dff5d23f9736fe04beba037bada3f357407f61d",
    "bmw7st_1/csx/1": "b17723a06b2d443da15c5a01b25eed0350f4f725f30dda788d396a58ede536bb",
    "bmw7st_1/csx/2": "72da44df9e297bfd80d22e406836bafe7a1acaca21d5b2f0148d3ca68b8c067a",
    "bmw7st_1/csx/16": "9d6d41d6c5b09580410af8905becbc6caf4e40326e353f203e28359e9c7141d7",
    "G3_circuit/csx-sym/1": "0e1dd7a8f9bc83fd582a706a3505c2aa4782a39ffc4015d89cca4eed464e6ee2",
    "G3_circuit/csx-sym/2": "36392ae739e9ebb103ee4a5d209b08035f019b7765864ca029135b8efc3379dd",
    "G3_circuit/csx-sym/16": "23633a855cb069d9604ac69dc557d43cf663324ac6be90c551d4b3ddeb59d82e",
    "G3_circuit/csx/1": "cf16ab24ceed03588ef6174374c55c5d13ab6aa6da0708c37fa48b34cb2cd89c",
    "G3_circuit/csx/2": "e5ea8a31e44072497aab503d68792d8748309fab2b82195992ff6b634fee598a",
    "G3_circuit/csx/16": "6b814bc2f50623076cdbf23b628777e73fa38a1de5aa8beeb6cb364c9aa0e5ec",
    "thermal2/csx-sym/1": "d8c0a776b3b9083b34b7a110bd739607961dcf28aa95e177d831bd68b1d15a05",
    "thermal2/csx-sym/2": "216d3dffb993e60d338b0efa3d5a7763cdf04dda4d828a3d05fa717088e65108",
    "thermal2/csx-sym/16": "59fa4c43992152632be71f75d3bfb02940186262c8ced5c5100e856b0a714524",
    "thermal2/csx/1": "ceea36b4efb6ab7c25f8550ed350a66860320c070e2a7e5d74b6328e0e5771ec",
    "thermal2/csx/2": "fa88371e2399158d7c2e9984528ba008f7d797a4c43208ef36f947c884c3b7db",
    "thermal2/csx/16": "99b3580a082af02229a9f06d24da58f41d7409dfd7f37b01c3fa5c981c8777b4",
    "bmwcra_1/csx-sym/1": "d1ad3c86a22480b9e222b1d4d2add669990214d463e5ce9b6183eee58c15574e",
    "bmwcra_1/csx-sym/2": "2c69e1bc291ec5cec666f7c8e2a7937827b14b7eea211384cb8bcd28d6deb9c9",
    "bmwcra_1/csx-sym/16": "6af5d3afc5b79d7bbeb31d23041cb54a82a8129dd7355fa1315ac954cdf376ae",
    "bmwcra_1/csx/1": "ae109e062ec63a74fe69038d5bcdb9c9b7132677015117ba8950db482c5f0dc9",
    "bmwcra_1/csx/2": "bbd2f531556b4ac382b20ac897fe49567ee84aa2d7b3174da35c06b90cf6cb35",
    "bmwcra_1/csx/16": "22c11bb039250010a7906b386a7d92722a3b43fa7d1b87c7cc2e907d13abd1b2",
    "hood/csx-sym/1": "ba6ecb9219f9cce05a80a2853062575e4471e18a46226968c18241b16f18f86e",
    "hood/csx-sym/2": "bc4bbdf5bc26035f07c741e5ff6df53082d3afa2e717ac74020b9a39e663f457",
    "hood/csx-sym/16": "735d2410ed5008eb4037e26e4c3413193b1c7e83637c60b2deb594657432092c",
    "hood/csx/1": "a91cf5ca2b514beca077ecd21551e1bc7542f9f4560c700554d46ec227f372b7",
    "hood/csx/2": "d2ef4ff557dba79faef149bb685afa53f5cd112cc44ef27b6592f04d5268a65c",
    "hood/csx/16": "dd25f409b3b160fc5e2622a7ee806ca827f4b748dce44b479ad2f37c92776382",
    "crankseg_2/csx-sym/1": "a3ac4742cc43e3094032e0e037a3dba08e4b4c64405da7ba03695aa044bd475a",
    "crankseg_2/csx-sym/2": "26eedb5bc73e0235b0cc4a56367a65b155a6dc16856e6c3507bdfe1db5ccd630",
    "crankseg_2/csx-sym/16": "1e04ff206da2af55b6b44399250e3f34f44fe3991517edb14c4013c1149a8dd1",
    "crankseg_2/csx/1": "57cb7d4674316c67a51879a1c2a26046071a5b5864d485c1114939e73117ce94",
    "crankseg_2/csx/2": "133303d9915c0de241165d5b0cda6203adb77c38059c9d47d5b659712ae9605d",
    "crankseg_2/csx/16": "76ce4d1cd2fb06ea2802eee5b44cc5c892db1de824ee9a854859b0232b66f3cf",
    "nd12k/csx-sym/1": "1f2a193be69a941cae810233e595db16aa3d387f39fc15bdddbf695b941bd9b3",
    "nd12k/csx-sym/2": "24bb99fbf511345db6b164310490d7643f1ce160bfbf1b21dc96eec5bd35338a",
    "nd12k/csx-sym/16": "a7e5b85ef71a3850ae7fcf05c2aef21fa14e18a8538d54504b1c01af10e1dc68",
    "nd12k/csx/1": "ccf349fe1c1ef9a59fe921dca19381258b93e51371c6bc7222ffabe2b316f3ab",
    "nd12k/csx/2": "ecc2f744a63de28f2dd467f104e95bbb7f293b04c00c194aa8a2927708a53733",
    "nd12k/csx/16": "895378d07716707ed7c4a0f3b5ea1c45a71049af8d6f444f70b07517027beb08",
    "inline_1/csx-sym/1": "39e63e4bc72506c7195b2bfbef0c9180eecebb980451aa8bd40d1fec7d897671",
    "inline_1/csx-sym/2": "14fefd2622583171c76112f1dd9dc3c8534831dccac53916a2a0246ebf623805",
    "inline_1/csx-sym/16": "a6bcc7116200d2c21875883028e54ad9a25b79df47703daee7e3a4a795a009d6",
    "inline_1/csx/1": "1641dd81bf7c1091c1e96958731c2c7bdd363b067fcb071967cbcc7f797d0ab4",
    "inline_1/csx/2": "c3f82754b036d3906163ac45206ba7369081e7c04a269e7be66480fc34a13c41",
    "inline_1/csx/16": "341baeaabf90addce9d4537ff3cd1a07f43496bc1fc89da61d85050964c63afe",
    "ldoor/csx-sym/1": "5e0a274d15a51681523e874e9b20b549dabc223b4d22c4289239c6fef7c9b535",
    "ldoor/csx-sym/2": "2b218a87ec2a9ea2ffb2f5e48a77bb11336936d4065fcea7fd7f825cc7b535de",
    "ldoor/csx-sym/16": "598dce6b5fa8cb6da37ff7cd92937015d8c3af307516983de1b2810179331fa6",
    "ldoor/csx/1": "08f1069be2c241567f4374bff2bb9b79d7c285a25f316d2f0a2ffdc2ad1543e2",
    "ldoor/csx/2": "7468c7e28ccf8d36560b600e06272e7f60e9d6868d38a957400983f9306bd29c",
    "ldoor/csx/16": "ef9bdffa768e8d6d6dd8cdfd3eff0abda4685106d83a0fcbb62c6784eed03acb",
    "fuzz1:0/csx-sym/1": "5a20b08c17bd6cbb649c3264105f8853fa448e53e16f6ec0507fcf6fd8218ce3",
    "fuzz1:0/csx-sym/2": "40a40a329541bb7ccc2a3f54db7571afd1a207fce5ffa858635b2bdd9e200f67",
    "fuzz1:0/csx/1": "621d2f302bde52a9490e57abc7cd008ceb755c5582d07d77ccd21e75d5382832",
    "fuzz1:0/csx/2": "e1d54e369970b0255dffbd88d22b51fd4b05b34f74ad310ae8fe540daa365fa7",
    "fuzz1:1/csx-sym/1": "93faeb03968b1ce8790a8c3cf29f58a21a65cb205bf3adaf05d8f101701877f7",
    "fuzz1:1/csx-sym/2": "23da65ed661c81ecb2ced35505b0e0be3862849daa55f8b1498d59a7e3b7d82c",
    "fuzz1:1/csx/1": "b65e237d8d07b9576dc6f6c66d165af2cc023ae5f354abf5b517caf769d10910",
    "fuzz1:1/csx/2": "e5ff6480ffc5b48c16836450a2d8cd124fee62e914fce8a2a3432610b2bd8a0e",
    "fuzz1:2/csx-sym/1": "8e68af561bbc6f66365b3e990f7386f4bd65942b2cc03f0f6d51ffe20b068b58",
    "fuzz1:2/csx-sym/2": "bf35e27ae5c2a8de9754bc2d96bf9a52e027f0c3de8cc600b2c9696651c664d0",
    "fuzz1:2/csx/1": "8788eccc951d783b679a5b9c0d370305386dfb4370e8c66c77f70dfbb978a3ca",
    "fuzz1:2/csx/2": "20bef51a483b87bde221ea188d3a4c9dd906996c24cff6daf09f55a5bebf1918",
    "fuzz1:3/csx-sym/1": "2b79770d9b8153ac9c498b624f493a1088e17bbfca19940819e7a73d98e8efa1",
    "fuzz1:3/csx-sym/2": "b50f2f644dceb81cdcdd08bd6150d57795b54bf64d23a3b6917b52e859991cee",
    "fuzz1:3/csx/1": "daf3c1d0c3e794ae3550bf2e14f10421adff4cd2f214776842d1d3c46bcf9bbf",
    "fuzz1:3/csx/2": "2ed8af3d87929a55d781f1987f5862e09be6dd0fa531970594493da7863e0f06",
    "fuzz1:4/csx-sym/1": "65d239bacdfc31cff9ddf5d29644e8e8d7673c77be4b6247dd74b7948678f510",
    "fuzz1:4/csx-sym/2": "69cbb5d61f9b2c59d11dba4c4d8c8a496628e76f93dab371f2392a3f78d2412b",
    "fuzz1:4/csx/1": "fe8e635a1376661fd63a44a129136e8cbffc7a678268466dc19885e8bfa94763",
    "fuzz1:4/csx/2": "f02f75f17fc48320f0edd106ee6172e206beefab1462239d40087766a0c2e195",
    "fuzz1:5/csx-sym/1": "b4801916b8ea0ff65c859b25ab0e8399c531090cee9b96fba3dd090a9c5c8b1e",
    "fuzz1:5/csx-sym/2": "254e6aba88586160de0b2f84784225124b6b2bf15643d6772e2149cd6d4a8d7d",
    "fuzz1:5/csx/1": "fd436fe84c154cc8e248ee92cfb2889a0ea7b6cd1229b3a8c1b259a6c21103c3",
    "fuzz1:5/csx/2": "e1ede935a889f33670d2c2ea45ffb1f0253050f7847228202286bf63a87a2f33",
    "fuzz1:6/csx-sym/1": "167e8e333e5ddc3e1e351dbc9eb49ae526dd8c7b4920cf6906ab1807a4f1094b",
    "fuzz1:6/csx-sym/2": "282a115dee9311c1c96450ffd5a359f7455d2834569b04fb94e74564bd1729c1",
    "fuzz1:6/csx/1": "e36579db67336dadc2a6385e573cb85960cb526d8e2e9dbeac3a69af604af5a6",
    "fuzz1:6/csx/2": "8e4a6c5cbb7737b868bfcd4bdd0dc0ea6085f059c5e0c6b9bf3f83d5318390d1",
    "fuzz1:7/csx-sym/1": "20b6ccdf4ba22809d7c8d3a72b8b0b7887be317ef1403749e96d66c7700212df",
    "fuzz1:7/csx-sym/2": "d6c26a3fccae14229475398b6e2485e78d00579db93a20b2c8962c67b2cca4a5",
    "fuzz1:7/csx/1": "a9d55e722494e907fc69099bda411fab9350b8a47aa9caefa8b4536451e0e81d",
    "fuzz1:7/csx/2": "460abc6b24ac205a61fd0c23170ed662b9121bd95837d4517426e57e761e0f1a",
    "fuzz1:8/csx-sym/1": "ad84acc377b72e96c33a0eaa72bbfb2b40aff5d7358fcd44a7f948848d48028b",
    "fuzz1:8/csx-sym/2": "8fd789f153a4eb2e3862ba110278f79b27287b457ed2866b4a0e19e7b093e5e5",
    "fuzz1:8/csx/1": "a13f7a5ebe2c087933c3db80c0f9e2f6ad5f6e702299dadd9f8569e5dc31bf7c",
    "fuzz1:8/csx/2": "00613408f49cfdbed148dbeccad69d45161b6bd6fa816a2f7834b9f573899aac",
    "fuzz1:9/csx/1": "be9c5efb2a064fa5426aaa11b281654aeadb2f1dbefcac5c24808d88bcc7dea8",
    "fuzz1:9/csx/2": "e4a48a3534b4ba5f840855a4b5a76d7ac203ec567c8f345719436e96e5b5275e",
    "fuzz1:10/csx/1": "129b276eca37d230db57e990e3771da37e7c89df564ec306a7695d5eb5ef5c0a",
    "fuzz1:10/csx/2": "e0c3ebd17821694db052399ac25b259343507df39dbdb3eebac85f687cac114b",
    "bmwcra_1/csx-sym-sampled/2": "a334052ecb4ac13eb9e88fd7adf3a8667c8d006ca4a953d46eaa2328ddfbcfcd",
    "nd12k/csx-sym-sampled/1": "496728bd4028bd911846824aaa0d87e83c9fd8d332453eb95395c2dc90e55261",
    "hood/csx-sym-unfiltered/2": "3e3d5afbe4630f0fffaad7c463e3ccbdb3a8d3af05d21096151770eb59d0cc74",
}

PLAN_GOLDEN: dict[str, str] = {
    "parabolic_fem/csx-sym/1": "a747f8207dce8ccd809a912982b63f26d7d17c77694a57b581475d12781c1fb5",
    "parabolic_fem/csx-sym/2": "64b823f9151be8303cc3df201e62acd0f8dde65cc49c0173b642f29a13b3ca4b",
    "parabolic_fem/csx-sym/16": "9d02c697810f015259620e7b77e402e876f5958fbe8d9ebf149c6aa1061fcb5a",
    "parabolic_fem/csx/1": "7decf330f7faa7a91c9ba0c543214701c567677623b3e8e36e7e799c4d891543",
    "parabolic_fem/csx/2": "668c0650025d6e0bc8ab8341f90e7c75b93092c0a8da8827b7058a1a4cd670f3",
    "parabolic_fem/csx/16": "5bc0ab7c5fe4ad0480bb0332e64b861ad05e8e87f0bdc20a229aee3d3072d954",
    "offshore/csx-sym/1": "c9984c885e1115a321fb62c12faab1610d473e74a16b0773192910fb2689e126",
    "offshore/csx-sym/2": "dd134d4324ec516af4fcb9995636b144d7ec2221d3a3816291c180ca4d956c98",
    "offshore/csx-sym/16": "4a062bb72c16255e71bf45f2be8d48a7de1ba9836cc785a7bcf2d65d56aee266",
    "offshore/csx/1": "323ab2bd80f955ce415c813ad2e6ed5d6f3c57c72b3c2ac225c41e6d22a71ef0",
    "offshore/csx/2": "3ce3c8b65b556260016b067595aab510735cfce1f50eb691a51c4c330ba1f8b1",
    "offshore/csx/16": "7873e265dc3278d1a50d38b940e9322d319548a7ec295f4c0b725900981f5691",
    "consph/csx-sym/1": "a09a5c579e5218485723074192d6673d083947a45d6f586d30b90adf6da89219",
    "consph/csx-sym/2": "4bfda54ff641780e1bd8703374f3e4a6b6bc9de32b2919be3c50a17a39ed3a24",
    "consph/csx-sym/16": "0be0ab968712d6a888f1039444596edbab76812d76710c54fb1756d87a3683e0",
    "consph/csx/1": "c1c803d6a2367526694caae65e21fc27b9ab7f8457645abd9cab05314646912f",
    "consph/csx/2": "a89940cd85256337edda743305e8649247d8a11d9cfaab121d287fe067e2fa54",
    "consph/csx/16": "f912fac9ee67c429a52875395d3b7274948e9482c6a9c2eb0f5c4605daa886ea",
    "bmw7st_1/csx-sym/1": "c9a1ecdc61c0d63ac01538ced335e2edfe535d1dbfa86affee186dcd05c34d73",
    "bmw7st_1/csx-sym/2": "0445d2a248ff84c6646aac8269a46fa7cd94639a15bd0d1ce96733b361ff992d",
    "bmw7st_1/csx-sym/16": "20377edeecbfd44eb2066b8a70517541266bf5b5a17fd4b7c5e7b18e876ffc36",
    "bmw7st_1/csx/1": "55cadb92de8f65e0fece45dd02944415c9a57c0db9e444c0d4712901190b49f2",
    "bmw7st_1/csx/2": "791f584c46061fa40bdf9882a0df728117a4e318e5a233f648fa99c8641f28de",
    "bmw7st_1/csx/16": "9df11764cc5a3113d096ecc7bc59bec05099dd27479b69af836b6be1a7f4c9d1",
    "G3_circuit/csx-sym/1": "78fa1abe4843754404b603689d10415e7f26d03e817d6736e1beda9d80ab9970",
    "G3_circuit/csx-sym/2": "7e0ab7b0f95c97ceb80bdc8df0c4ede01d926b79985ab995f13484bbcef84fdb",
    "G3_circuit/csx-sym/16": "1f2ea527dd8ac2a791218027d3ce8e8fd8bdfa29719a42170fa6a8da0436bca9",
    "G3_circuit/csx/1": "2cf409a2daa3481df62901cdc8a470c6b4bf613e6099be2a154e7e013f025971",
    "G3_circuit/csx/2": "d743fd34d295e6c905fa56c0e29c99d009d2046e9a0c9ee2e34f1e48c4887e0d",
    "G3_circuit/csx/16": "c89a5d6534a239fef927dd094d10d446b1c9dd75b127dea921e8f4462ea515cb",
    "thermal2/csx-sym/1": "69436c67bc40d85e8f9d2e0a9909de67074750bbfb6c5298bba955df0f1241d2",
    "thermal2/csx-sym/2": "ab68cb31ae4c0fa5041ca527ee2ecbe8d9773c80b1e46dcaae42a5a2c66789c1",
    "thermal2/csx-sym/16": "d9a312a72b298fb76f83380e5a58c70ad86bccdbddfc9f6b690d53529d2f1c1b",
    "thermal2/csx/1": "3a996ce68182a8eb98ab5c67d3500cfd186ae127cc07f9359ed045da598db226",
    "thermal2/csx/2": "da4a9dc275ebf1f3ebe5a63c867c5b1a80f78c36d846689bfed3400bfb53d59f",
    "thermal2/csx/16": "7005dbbc38d588c75d4f7b7ac641cdfa987749ed1afaeec0c2c976bfc6e4e56e",
    "bmwcra_1/csx-sym/1": "5f3c51b48bc0fe7a69024c53e69bc1a4803a95d20561da010aabe7ac49dd174d",
    "bmwcra_1/csx-sym/2": "178456d52e003dbb4cc7bb9a93bcd3ea4f7861fbecef8e53eb65b574863ba037",
    "bmwcra_1/csx-sym/16": "0ccd46406dacba33fec5562ab977c2c5994f33e203ccb20672919eb5787aa303",
    "bmwcra_1/csx/1": "94beb0cfd987ca9afda80491ad67c5a4dfff7d9bb5aa9185c739a2e1fe5ab2a9",
    "bmwcra_1/csx/2": "5abb06ba08424b078665ed9d0e485e445e91269bc9d5f86c790cfcbbeefea557",
    "bmwcra_1/csx/16": "bfe4251a1711f8b76e2df1b11d364c4d6cc31b4a757ba897d66b974382165ab1",
    "hood/csx-sym/1": "3656cbd4a38d0302cceba4a8bb91ec8934098a52f4b9158e31c49871e98e2c51",
    "hood/csx-sym/2": "aec16ac82bec4a71299d4ef0a84cc0057d67fb1217732bced56059c595e5638b",
    "hood/csx-sym/16": "05aaf0ddc199bc926fffd8bd9a013c3c6f48e886d8a6ca0db5e5f5d3c6fd3ab6",
    "hood/csx/1": "538cd3b1c51746579ccdb66f664e9c221aadc08a2fc558f7415c80eda0bce724",
    "hood/csx/2": "cbae0e2e828324f131ee1d7b25b3bf5bc9707fafd4da5d74716571e14d6da4f7",
    "hood/csx/16": "eb5d1ce9bc68f7ef2d4f7eed7aa55f59289621ca1b251bba35decfd23150870e",
    "crankseg_2/csx-sym/1": "63d26811c015d08523133cd511ec0300d745b0fda27a99deffc44322c1fe7aa7",
    "crankseg_2/csx-sym/2": "93bd9f2878e1cdab36bb5af5c3abc85db6c0adc97ba25510ce782198c6c547c1",
    "crankseg_2/csx-sym/16": "9bf676fdc5f05cf5a9fc7f4f5902e43a26933925c8a8ee8f06c19a71e31592d7",
    "crankseg_2/csx/1": "403801b8c1be7242c71b3556f2d11b96d0c0d9f55454c011499093edd54b25fd",
    "crankseg_2/csx/2": "9bd74c282a54441d764852fa6739440827f6d96a3a5cd1c272dedf9f426f593f",
    "crankseg_2/csx/16": "7eed0271f4ba0a4387cf121bcd24ef24d29f0b570fdbfca6b6685211e1fc8ec8",
    "nd12k/csx-sym/1": "3c83fd15c0ea671578474bbefa236bf93ee9d98ae52fe48d92630d7395a95ac1",
    "nd12k/csx-sym/2": "c66cf62ca764d841441bce102c5f53e01d142fa5ecaab95ad2c7e16310ba1261",
    "nd12k/csx-sym/16": "002da1ac39546df06cd04f29fe2ac622ebaa3cdcc219d23b3be2fd503ce8db4b",
    "nd12k/csx/1": "3661d0a3b6b71eb4f870a238d45c028a2c30184f921fbef8c19b0492e4e82990",
    "nd12k/csx/2": "7f86b7672503f0c24bd130c06c9782bce9c619f4a9c5e4a5d3bd81fc47c2b72a",
    "nd12k/csx/16": "2ba84a0165daff78ae48cb4165bbdf57ecaf33d13490efe06a96a6b44cfd81bb",
    "inline_1/csx-sym/1": "7e4054399e6c718b2ba3877ba8ef4dc9c935688be168199f22d36a6d084a6ed4",
    "inline_1/csx-sym/2": "1e3a82d92d8ba0ca0d21c83c696dc85d90cf930bae8c3e3f57f451311797fe46",
    "inline_1/csx-sym/16": "53c82c8ecfa6c3d6c11414a9cd0f0ae456edb668bea50386774e765a40af95d2",
    "inline_1/csx/1": "44f1e30e7e560421ccf83161f8261516b697e67217ba2f01b98cd36531962b27",
    "inline_1/csx/2": "793a711f3b979f62b426173783387978ec221a9d00c850d1b7c6ba5b28e04140",
    "inline_1/csx/16": "e17f7fffc593c72d81fa3eb563a4c493b4b831c77820d9fb93d774bd947dbc74",
    "ldoor/csx-sym/1": "bc521b3446c088cfa571de2853c849aca390c57fa4d73066fbea72e4974a2e21",
    "ldoor/csx-sym/2": "332b4ca9bed3bbf492c989f7d399ff956ef26d698aa6fc8f051b4c21e7e828c1",
    "ldoor/csx-sym/16": "55c421ea6364fe1112f6f2f102a3576eddf811f1f0b9270c03fddca9bda7d853",
    "ldoor/csx/1": "ed4d56f184cc07bc7b098fb4616c195220ecc09a0ae8046e8ca880f427e091aa",
    "ldoor/csx/2": "1e4a8286ae103fb6d749a8548957f85863c0006d8ca9c1cfa6f9c19ba5dcfb9b",
    "ldoor/csx/16": "9fa9a3c635240f177728da631b9ae5a9190ac4d2f6fea165e2941deff3d52dc0",
    "fuzz1:0/csx-sym/1": "2e908a504ce7ffefe95389a5b61d62d6baae698a942e8b5edb2120f761f5a29d",
    "fuzz1:0/csx-sym/2": "bce0fe6f264571bdb77e8ab0bdf7da4267101434e4fb471395b0b4c117f21853",
    "fuzz1:0/csx/1": "a6cad69c02377fb587814d8dbec111cc94fb5274b8ad42cf2d5503a8f6c1cb20",
    "fuzz1:0/csx/2": "a03766d1245a135d7342e393cb1ef04edb6e0010fba8776dd397bf06c565f30f",
    "fuzz1:1/csx-sym/1": "3242af01380891f2d56764d04fe838d13450f0e7ca59a011a38435328f8e91c6",
    "fuzz1:1/csx-sym/2": "4b475947fa69a58eaabc6803a332ad7203e301ec4d7ba0e4a4b1d64211d3a491",
    "fuzz1:1/csx/1": "e64ea2d015d6d189812d11185c7dcea4e35ca96d8b6a5f0b7a9df66e68ae1700",
    "fuzz1:1/csx/2": "9ad3b46ea2416ef9a3d9193d6020d7aa04d2907cac3b63e1bdd135d5aa28d627",
    "fuzz1:2/csx-sym/1": "51484303076769c1173236a6cee74c257ca40facf973eb4813746987664a9905",
    "fuzz1:2/csx-sym/2": "5b1ad86eef37fc8bd369e2f32f3af96c674d411b48213e9aa3a69f7b2ce84253",
    "fuzz1:2/csx/1": "82a58f177b9d5474f5391eda0abc9e6bb4af55d857ad404fcd31bd760c1bd9b0",
    "fuzz1:2/csx/2": "ab847896d39581ccdbc15492ca551f1bf7070472f3c21807ccf8189b431ca991",
    "fuzz1:3/csx-sym/1": "077db1c30352b8aa5071b7197b3eb26a9966ebae81c105a444614237390e2f92",
    "fuzz1:3/csx-sym/2": "9d9b3527af85a399f436141538ba22cb0b72675ea783ed6a6bcc0dffee658224",
    "fuzz1:3/csx/1": "46301fe718e6019ea3dfbde9c13befee5e006c9a53be50d4f39c3931a834148d",
    "fuzz1:3/csx/2": "b4bb31bcda780faf522d9d6b766a1b164cc0de73fba08337b2e890d8fc8d9b67",
    "fuzz1:4/csx-sym/1": "40e44c56ec7b05bec27ffb0e5f0c7c93613597f3cd7c652f0e8543a3e04015aa",
    "fuzz1:4/csx-sym/2": "dda43b4f6b82b9d015cc7ddf128f927cb55f830d2f616b5a99c24e0b7c10d186",
    "fuzz1:4/csx/1": "e02a4ab3e7b76989a21324f59f170cd372e3d018893a32941d0dfde10d424a14",
    "fuzz1:4/csx/2": "785a0042dbf5535d3b9286e5c6d80428bbf2353d5a684282798ddb94fc7cbcd0",
    "fuzz1:5/csx-sym/1": "12a75b341ee9745b87c0e681556d84b052a53db066572d615b23f848829f191e",
    "fuzz1:5/csx-sym/2": "19eb8f5f52e0a839d5f10f89bd858e946459e5d1e55ff008734b270b1f821af9",
    "fuzz1:5/csx/1": "47130f7167d905b49feb7e026397da58b47cd706c4c739e1c4c08463ee5f0e44",
    "fuzz1:5/csx/2": "c6d0b523d36f9b1a341406a57d1a0f4ecc7c944852eec88d9295ffdc367615b0",
    "fuzz1:6/csx-sym/1": "0e89d938288b84eb66e5f3a00b2d0f8c8a492a65b2f80a92584fdc02371571c6",
    "fuzz1:6/csx-sym/2": "325f5cd086fb2c2366c707f2deb41becc06e2b90c4c78de31772e370fd19156b",
    "fuzz1:6/csx/1": "20cd9c6c121abe77554a699b733aebcee2306f96d1f0c4f45701d71edad1d791",
    "fuzz1:6/csx/2": "c175f07511e0e978cf3faa922ed1299d160ab4cbf542da9d609b65a647282ac5",
    "fuzz1:7/csx-sym/1": "0022fc91a10b4d449d298c9297405b9375242595cf624304a5a0e509f047d106",
    "fuzz1:7/csx-sym/2": "7f62b01cceff4bab7b814e5340bd85b70cbc6128fb3abaafee007722cef6559c",
    "fuzz1:7/csx/1": "429aca833d9746acb8ef653c1d3a7b1ae9858b0c6d6fd4701b6d77c162ad2fa7",
    "fuzz1:7/csx/2": "b8934cab2e303124ff277118c7e9e0cc372ca00e70d5b4bd9e8f2ff06da2e53f",
    "fuzz1:8/csx-sym/1": "0a1d766a81e75ebcc7fe0ead5b28716bd592494e7b39201ece2f3b957b2177a6",
    "fuzz1:8/csx-sym/2": "09411d39f3e6b3edb66111f04a8a751afa38c60d3307f7e656af058d24168af7",
    "fuzz1:8/csx/1": "69cab07e17fb80f9ff271e3782743ac883c36f98f3a71ac2dfd3f5fa82160035",
    "fuzz1:8/csx/2": "94f773a713d434af7324c0585b8a029885bd90809ce4415c96f696154dd3cc9e",
    "fuzz1:9/csx/1": "a8eefcba32d8ad386fbe2cb8d19b5895afad2f1958525aa15d31467d9e1b9251",
    "fuzz1:9/csx/2": "230f8142681b8fdea0a59e90a27c750576fb99e8b5c8f307b4f6100beb4b462a",
    "fuzz1:10/csx/1": "d9e345350f15ac99fa4bda08aad1c8f4fd7826ae1f2b1c208e80121b25e39117",
    "fuzz1:10/csx/2": "07e5831dd98c83f1421cd7d2b3a30f7dac3ca34e7aacbbeaab4db2873ca5ed93",
    "bmwcra_1/csx-sym-sampled/2": "178456d52e003dbb4cc7bb9a93bcd3ea4f7861fbecef8e53eb65b574863ba037",
    "nd12k/csx-sym-sampled/1": "3c83fd15c0ea671578474bbefa236bf93ee9d98ae52fe48d92630d7395a95ac1",
    "hood/csx-sym-unfiltered/2": "aec16ac82bec4a71299d4ef0a84cc0057d67fb1217732bced56059c595e5638b",
}


@functools.lru_cache(maxsize=None)
def _digests(case_id: str) -> tuple[str, str]:
    m = build_case(case_id)
    return build_digest(m), plan_digest(m)


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(ALL_CASES)
    assert set(PLAN_GOLDEN) == set(ALL_CASES)


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_build_digest_matches_golden(case_id):
    assert _digests(case_id)[0] == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", ALL_CASES)
def test_plan_digest_matches_golden(case_id):
    assert _digests(case_id)[1] == PLAN_GOLDEN[case_id]


def test_digest_sees_a_single_byte():
    """One flipped value bit changes the digest that covers it."""
    m = build_case("hood/csx-sym/2")
    before = build_digest(m), plan_digest(m)
    m.partitions[0].unit_arrays.values.view(np.uint64)[0] ^= np.uint64(1)
    assert build_digest(m) != before[0]
    m.partitions[0].plan.data.view(np.uint64)[0] ^= np.uint64(1)
    assert plan_digest(m) != before[1]


if __name__ == "__main__":
    digests = {cid: _digests(cid) for cid in ALL_CASES}
    for i, name in enumerate(("GOLDEN", "PLAN_GOLDEN")):
        print(f"{name}: dict[str, str] = {{")
        for cid in ALL_CASES:
            print(f'    "{cid}": "{digests[cid][i]}",')
        print("}")
