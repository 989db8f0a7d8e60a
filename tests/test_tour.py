"""The README CLI tour, byte for byte.

Runs the tour's commands in-process through `cli.main` and compares SHA-256
digests of each command's stdout and of every file the tour writes against
digests recorded while the orbit closure still ran on QuadExt coordinates.  The
two `geometrize` commands are checked apart, against digests recorded while
realize still started hint-less targets from a planar layout: their exact walls
must not move, but the float residual they print may differ across BLAS builds,
so of their stderr only `"verified": true` is checked.  A change that moves any
of these digests changes what users see; if that is intended, say so and
re-record.
"""

import hashlib
import json

from packinglab.cli import main

TOUR = [
    "fixtures",
    "fixtures apollonian --out apollonian.json",
    "fixtures hexpyr --out hexpyr.json",
    "orbit apollonian.json --bound 100 --max-word 600 --out packing.json",
    "certify packing.json",
    "render packing.json --out gasket.svg --labels",
    "lg-scan apollonian.json --bound 100 --max-word 600 --modulus 24 --scan-bound 100",
    "orbit hexpyr.json --bound 30 --max-word 3 --super --out super.json",
    "certify super.json",
    "fixtures cox6 --out cox6.cox",
    "decompose cox6.cox",
    "fixtures hexpyr-gram --out hexpyr.gram.json",
    "arith hexpyr.gram.json",
    "fixtures tetrahedron --out tetra.json",
    "fixtures cuboctahedron --out cubocta.json",
]

STDOUT_SHA256 = {
    "fixtures":
        "f8aff2b0c5799838a1f9a93da31accbda8fd0d8dd48bd5e18135c7290f627923",
    "fixtures apollonian --out apollonian.json":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fixtures hexpyr --out hexpyr.json":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "orbit apollonian.json --bound 100 --max-word 600 --out packing.json":
        "1b8a9e09bf05f7b77caba910d1a532293c76ca482868715552ee49fadd63bde4",
    "certify packing.json":
        "0737d1b9344807d975e0e392a79ddabe5df2d8e32e20fbbd6d55d137d7483fef",
    "render packing.json --out gasket.svg --labels":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "lg-scan apollonian.json --bound 100 --max-word 600 --modulus 24 --scan-bound 100":
        "02caa7a7a333932d908f1e2db6652991d4540c98cd5a55db8963ea7169a5a508",
    "orbit hexpyr.json --bound 30 --max-word 3 --super --out super.json":
        "094b5a281ad9a5708983bb82b31921183b075b7d96f74c4bf7572c38d84e4fa1",
    "certify super.json":
        "872111079fec3763df96f11fd94a95e5c1aafadd90e54a8595a28680ab90a1ec",
    "fixtures cox6 --out cox6.cox":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "decompose cox6.cox":
        "16aef3f734a902bec69e4365874995dd11addeb97c7ef58da1533c60d6dedee9",
    "fixtures hexpyr-gram --out hexpyr.gram.json":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "arith hexpyr.gram.json":
        "485188e846aed19eaeeb9d6a6812faa2cf19b56b4ec91f36b99358094e6455e5",
    "fixtures tetrahedron --out tetra.json":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fixtures cuboctahedron --out cubocta.json":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

FILE_SHA256 = {
    "apollonian.json": "0285f03554fa526dd7bcbabd718f37b56d71f798fa495cac2c2d66ec4ff83833",
    "cox6.cox": "8658f29b05e0e859ff3e95f9cf80f37afbc41a9bddd3e50c56162de8c9fae94e",
    "cubocta.json": "b93d06fbeb68fabfc62eb65e85751ab1e920101f2320d6805eb44fc7249cef82",
    "gasket.svg": "1210c9fa5109c5fbaf900a0ac2087f81a938448261e095f12b2c7bebb4171b0c",
    "hexpyr.gram.json": "57e202600ca2f6aee684aac7fd2826b000616bc48813aba051df3c401220b886",
    "hexpyr.json": "178cc48d848e594922d4dae99692a18541fe05824d009f168577d9d4004eb516",
    "packing.json": "9d7c6365fdb4d96a52dee11559ddb2804feea629ee312f04f342c9a0e6b05ca2",
    "super.json": "4d8c89e0ac5076ea5ad7631b2eecfe683c8109b5dd04046b90f69e22f204682a",
    "tetra.json": "f9285b72a5c30781090c211034ff7826b03156129fc41059c2c66994b2190d9d",
}

GEOMETRIZE_STDOUT_SHA256 = {
    "geometrize tetra.json --d 0 --out system.json":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "geometrize cubocta.json --d 6 --out cubocta_system.json":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

GEOMETRIZE_FILE_SHA256 = {
    "system.json": "3a22753ec5360cc185fbd145b7d2bd3cdafe4ebb21a44d5c79d252017dd8a201",
    "cubocta_system.json": "0b791fc98c55d1d46ccf74aaef4fce89dfff3c4aeab0e61b68f5f83677e33954",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_tour(workdir, capsys, commands=TOUR):
    """(stdout digest per command, stderr per command, digest per written
    file), run in workdir."""
    stdout, stderr = {}, {}
    for command in commands:
        argv = [str(workdir / a) if a.endswith((".json", ".svg", ".cox")) else a
                for a in command.split()]
        assert main(argv) == 0, command
        captured = capsys.readouterr()
        stdout[command] = _sha(captured.out.encode())
        stderr[command] = captured.err
    files = {p.name: _sha(p.read_bytes()) for p in sorted(workdir.iterdir())}
    return stdout, stderr, files


def test_tour_is_byte_identical(tmp_path, capsys):
    stdout, _, files = run_tour(tmp_path, capsys)
    assert stdout == STDOUT_SHA256
    assert files == FILE_SHA256


def test_tour_geometrize_is_byte_identical(tmp_path, capsys):
    exports = [c for c in TOUR if c.startswith(("fixtures tetrahedron", "fixtures cuboctahedron"))]
    geometrize = list(GEOMETRIZE_STDOUT_SHA256)
    stdout, stderr, files = run_tour(tmp_path, capsys, exports + geometrize)
    assert {c: stdout[c] for c in geometrize} == GEOMETRIZE_STDOUT_SHA256
    assert all(json.loads(stderr[c])["verified"] is True for c in geometrize)
    assert {name: files[name] for name in GEOMETRIZE_FILE_SHA256} == GEOMETRIZE_FILE_SHA256
