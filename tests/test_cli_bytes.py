"""The CLI's bytes, pinned: stdout, stderr and exit code of a fixed list of
in-process invocations, each hashed with sha256 and compared against the
digest recorded when the list was added.  A change that alters any of
them on purpose re-records the digest of that invocation here.
"""

import hashlib
import json

import pytest

from facnum.cli import main

FORMULAS = [
    ("cyclic", "--n", "3"),
    ("elementary", "--n", "3"),
    ("rank2", "--a1", "2", "--a2", "3"),
    ("corollary4", "--n", "3"),
    ("Mp3",),
    ("Ep3",),
]

INVOCATIONS = (
    [("formula", "cyclic", "--n", "3")]  # cyclic F2 has no polynomial: --p and --poly exit 2
    + [("formula", *f, *extra) for f in FORMULAS
       for extra in (("--p", "3"), ("--poly",), ("--p", "3", "--poly"))]
    + [("explore", "theorem5", "--p", str(p), "--n", str(n)) for p in (2, 3, 5) for n in (2, 3)]
    + [("explore", "conjecture6", "--p", str(p), "--n", str(n))
       for p in (2, 3) for n in range(2, 6)]
    + [("explore", "openproblem", "--p", "2", "--n", str(n)) for n in range(1, 7)]
    + [("explore", "openproblem", "--p", "3", "--n", str(n)) for n in range(1, 6)]
    + [(*argv, "--format", fmt) for fmt in ("json", "csv") for argv in (
        ("formula", "rank2", "--a1", "1", "--a2", "2", "--p", "3", "--poly"),
        ("explore", "theorem5", "--p", "3", "--n", "3"),
        ("explore", "conjecture6", "--p", "2", "--n", "4"),
        ("explore", "openproblem", "--p", "2", "--n", "4"),
    )]
)


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


DIGESTS = {
    "formula cyclic --n 3":
        "6954f64d311958087082d4a01ef1c61553eb1b1836238914348035a08e9d6166",
    "formula cyclic --n 3 --p 3":
        "ecd2596a19a5a2ea14c1ca5266111f7acd0fd4138912d513eb4fc2949f746246",
    "formula cyclic --n 3 --poly":
        "bd5d9f1921de147101426fcf6dcbe00adab07f25cd9ffe52c891518b8254bca0",
    "formula cyclic --n 3 --p 3 --poly":
        "08cb52e5a0b17474bafe7d367b7301daf7f8e8d3174c482ebcbcdab099318e96",
    "formula elementary --n 3 --p 3":
        "32026f47381052f77cc18b26663bd000fb2f27bb713d6ed461e2220612977f3a",
    "formula elementary --n 3 --poly":
        "0b9b8a4c3ecb896382576aab353745d712815c12b5af4370b2d56114bd75e0f1",
    "formula elementary --n 3 --p 3 --poly":
        "40351173239846b8f190949fff1bb35cc5646cde29a2d14975da81d0d855e0d6",
    "formula rank2 --a1 2 --a2 3 --p 3":
        "8e099c3eea13371ba2fb6a6a1133e47d76dc05ed7a1124683518d170eed8997a",
    "formula rank2 --a1 2 --a2 3 --poly":
        "a70306649f66cec986ffdd7d945daa979f1a2683ffd45b78984e3974f475a3d4",
    "formula rank2 --a1 2 --a2 3 --p 3 --poly":
        "0a0c84f18248768c381a7882d886ec23f8546d0c06331ee67a02df0e4c719b6e",
    "formula corollary4 --n 3 --p 3":
        "4783648d424997194e1f7020f018ab4787844da895aa96061a6b3e10d544aa9e",
    "formula corollary4 --n 3 --poly":
        "3a35c805df72172acf50cf5c1887d6abda91f0ec232e12d279313133001f9cc7",
    "formula corollary4 --n 3 --p 3 --poly":
        "28951038f4c2cbb0219b13f877eea3f2c6a6aec354df7dcf337b1b9aa8398965",
    "formula Mp3 --p 3":
        "f1813ec21c25a3b09b014aef463c53225965d26ac26e0e63136ae54061e152b6",
    "formula Mp3 --poly":
        "7c9de9cd2a6ace03834454b1ea53efffa94b281ee38fcf9912bc5bbf5b4e3a40",
    "formula Mp3 --p 3 --poly":
        "de15aff2d25f3e53edfea5975e4d3a0c82add2ba5cb9092eae3ebc8f8dad0cf6",
    "formula Ep3 --p 3":
        "17c9261a458e944992bee797321a81d060b8d5bd078b78dd94951272ce8b7f87",
    "formula Ep3 --poly":
        "a8a81c391b70b1ae58c4dc96cd85fab0cdacb11137e68b4dd5a5f0c404226cd5",
    "formula Ep3 --p 3 --poly":
        "8d157bba08fbf6a824f1a093b4345dcfe62e4af4f7007c5dad91a6f9c2247312",
    "explore theorem5 --p 2 --n 2":
        "8f410bb80ef617cc3ca1cf09178cf2ed4ec76c19f220089be19f82acae36e975",
    "explore theorem5 --p 2 --n 3":
        "0db7c5cd0a17ac4407d12429d51422335518514dfcb25e768e010cbd77350f0b",
    "explore theorem5 --p 3 --n 2":
        "a54922566207bdc6a62da5bf927a324165aed5406f675c84849d25abb57bbbfa",
    "explore theorem5 --p 3 --n 3":
        "3cbb046ea2bbd6c1b0bc6c803901319125a0ad151b432b64daa07d92590e5670",
    "explore theorem5 --p 5 --n 2":
        "7d6fa46b75ee1446cd83f657320c282cf96b0aba59ccd85fb316efb698aaa7a9",
    "explore theorem5 --p 5 --n 3":
        "2d26882cf3b240942b18424d81fd964c3f0d9833c9a0eca1fb5a08b77358dcf1",
    "explore conjecture6 --p 2 --n 2":
        "b04c0e26e73b1ea6ffba38790efc3b097c4f8f44c1f81ba49a8e32d0e2bdc513",
    "explore conjecture6 --p 2 --n 3":
        "3dc025c91e799d76c41a4d0f1f1648528c1bedcd046376eb1b9e7eab5e813acd",
    "explore conjecture6 --p 2 --n 4":
        "8107f3dc6971869c2ad627cf15390610d96caf6b54abe1de1febf4be89d160c9",
    "explore conjecture6 --p 2 --n 5":
        "b56b095a477084a8c4231c695bc73b9dff09de49c176f1cf118dc8d9b88dcbf7",
    "explore conjecture6 --p 3 --n 2":
        "882c8be55b5ef16e3e790665f33b5ecb0c9323a040a204399a4f9e13dc0c96a8",
    "explore conjecture6 --p 3 --n 3":
        "0cea8f9518eeb21914a3bcf34bf83441d17363820a9545928b6c4778270b13b1",
    "explore conjecture6 --p 3 --n 4":
        "9a33a41d8aa6334bb9ee0b64e12b9f9893b0847338fd9efb4cea1bebfe708073",
    "explore conjecture6 --p 3 --n 5":
        "f350ffc302f8c1891c3f4101ae0e0cfda044c62db4981166b752f5ac1467aa10",
    "explore openproblem --p 2 --n 1":
        "3b110dbef79028d33f907ea8abaf6d5079093d940a66cd3fdbf03eb9131ed758",
    "explore openproblem --p 2 --n 2":
        "b384890d2e409c21bcb13f29a7f0799457b37f3ab623659a22b5f5c1d070b619",
    "explore openproblem --p 2 --n 3":
        "c701287d4fecceb7789ffc045672f3ff38abf568faee8374300d246f55686b21",
    "explore openproblem --p 2 --n 4":
        "4fb04914fb47470a1003ae638d8238905758c394e50bdfee8ab15be945e35b10",
    "explore openproblem --p 2 --n 5":
        "010372fb2841d7cba5fa3b39c91a8094723fddc1e658e1ec8548904269141f70",
    "explore openproblem --p 2 --n 6":
        "c2174983da1fdca1f30e3c1d500cf9b29757718b21f6166b51115b7c0ff9e8ef",
    "explore openproblem --p 3 --n 1":
        "3b110dbef79028d33f907ea8abaf6d5079093d940a66cd3fdbf03eb9131ed758",
    "explore openproblem --p 3 --n 2":
        "a3db87d87bdc2059ee990e0db6bf17d173929b760a8d7afcba00cde00ed6853b",
    "explore openproblem --p 3 --n 3":
        "487f43eb38d228115338e3f41e0741e5f6ec8c0947d8e26626ea2617c0e2c1fa",
    "explore openproblem --p 3 --n 4":
        "b80fa58d1f1ed7d45bc8e7d6b3b73f62f477704016390622bf5838a168f35854",
    "explore openproblem --p 3 --n 5":
        "b1ce55cae5f788a52031e96f3b17295fd16fadea076fef7393a78dc4dc8d5c1f",
    "formula rank2 --a1 1 --a2 2 --p 3 --poly --format json":
        "f3c6f934c24f3600d06ec6b1dde885061dc51d13e84bd6bd60a881f507d9a008",
    "explore theorem5 --p 3 --n 3 --format json":
        "78eea8694277d7118ae9f8d84a7427e85050c23bb9cb5833a032011ed101643b",
    "explore conjecture6 --p 2 --n 4 --format json":
        "37a982b22bcae0863e8f1d371421237f087be191f4d090e3237289f366b0540c",
    "explore openproblem --p 2 --n 4 --format json":
        "e700191a2f75b6b8b1366152f4a2cb50a53484b5a056ce44760cd9baa6c058ee",
    "formula rank2 --a1 1 --a2 2 --p 3 --poly --format csv":
        "1d3d8838999869e66c099540777f0d75b66d0d12062d48ccd47d0a601c370da5",
    "explore theorem5 --p 3 --n 3 --format csv":
        "1ebbacc54624eddbb2e54c5806fe498bf627a557f21821f75e07b263825574d4",
    "explore conjecture6 --p 2 --n 4 --format csv":
        "f24cb96ab44a632cfa41569ffff548b0b9973ed679c1e7bd3ea6bde69046dd6a",
    "explore openproblem --p 2 --n 4 --format csv":
        "a87d5556cf9a17e79a8f2e08e25b1c151f4bd24de70ab51b520930733865086b",
}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_bytes_pinned(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert digest(code, captured.out, captured.err) == DIGESTS[" ".join(argv)]
