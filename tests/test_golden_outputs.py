"""Byte-identity of the CLI's reports: SHA-256 of the stdout of each command.

The CLI digests were recorded before the per-cone Thomsen reference left
the package; the multiplicity and demo digests were recorded before
decompose counted its keys in slabs; the fan-file digests were recorded
before one Bareiss elimination replaced the cofactor expansion of
lattice._cross; the Pic-context digest was recorded while Pic inverses
still went through a second Smith normal form.  A change that alters any
byte of these reports (a verdict, a class, a multiplicity, a key order, a
label, a class map) fails here; a change that keeps them passes without
touching this file.  The fan-validation digest was recorded while the
completeness certificate still computed its own facet normals.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from toric_exc import cohomology, fan as fan_module, frobenius, lattice
from toric_exc.catalog import format_fan_file
from toric_exc.cli import main as cli_main
from toric_exc.fan import Fan, _completeness_problems, cone_inverse, validate_fan
from toric_exc.frobenius import decompose
from toric_exc.picard import anticanonical_divisor, build_pic_context
from test_fan import projective_space, seeded_blowup, seeded_blowups
from test_frobenius import bondal_reference

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    (("--format", "json", "prove-main-theorem"),
     "d1d599b39eaee42c7cdd68275db9a67a87dec00bc93656516cf81317cce9698c"),
    (("prove-main-theorem",),
     "b120490eba5dd925d7af23640c02ea5f7ea1bcd9f744817dc411764582357b23"),
    (("--format", "json", "verify", "--variety", "D1"),
     "c7439164bb08d9d20bf78238f53a1cd8d0e74ff0fb82cfc645213f7ed5b490a8"),
    (("--format", "json", "verify", "--variety", "D2"),
     "236940d8356fd1d34ca6b22ea087faeda56308021eb3ea709cea1c508d988e68"),
    (("--format", "json", "verify", "--variety", "E1"),
     "a438dc0516f8435342bfe91d2cb6cfaa43b1082cb82bd1c7d31319210d445352"),
    (("--format", "json", "verify", "--variety", "E2"),
     "e7b7b5c43f90f8c1fe6a57a61215a26c181a71a31a51bf3beeb9baec96ea2ebd"),
    (("--format", "json", "verify", "--variety", "E4"),
     "af3ff72b1c2de24f6f6760ce4768acd1ae566de6599be9630eeabdc060892c3b"),
    (("thomsen", "--variety", "D1"),
     "f58e796a7d002493ff5289ae78e84f630cce11f5f661018d93d5538db53f199a"),
    (("forbidden", "--variety", "E1"),
     "e444c65965e7a7c9563fdd53e4a550764b7ae1e517951a3e7df40447415869bc"),
    (("cohomology", "--variety", "D1", "--class", "-2 2 -2"),
     "1503bf7a667b1b17ca8c953361dd840e97ccdd5f18b4f177c878d6aa8fc21431"),
    (("cohomology", "--variety", "D1", "--class", "-2 2 -2", "--box", "4"),
     "1503bf7a667b1b17ca8c953361dd840e97ccdd5f18b4f177c878d6aa8fc21431"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_stdout_is_byte_identical(argv, digest):
    assert stdout_digest(argv) == (0, digest)


def stdout_digest(argv):
    """Exit code and SHA-256 of the stdout of one CLI command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


# SHA-256 of json.dumps(results, sort_keys=True) for a fan file: the Smith-form
# Pic basis, and lattice._cross_products in dimensions 1, 2 and 4.  Only `results` is
# digested, since `inputs.fan_file` names a temporary path.
FAN_FILE_GOLDEN = [
    ("P1", ("thomsen",), "36616771578a1db27caed767b7a6192c75aaecf6973ed4475a9eb5f6376b480a"),
    ("P1", ("forbidden",), "af79956ac9f49acc4b5bb17c3ed553b533e8b0bb07e4a861ffa6abcaad7cb597"),
    ("P1", ("cohomology", "--class", "-3"), "b474691501c27c382dc7a7a2a69aa93261a23ac4d371170de631d1cd3a461016"),
    ("P2", ("thomsen",), "7b6207e964c9533ba2717f30cc200360bcc3786f2a36fbd55d9a3ab5477a5816"),
    ("P2", ("forbidden",), "cf9b4b1b59ccc29af812d153772b29f94e2362d8971d196539069c492c10687f"),
    ("P2", ("cohomology", "--class", "-4"), "bbdfa5a066f705344ad4b162bdcdf2a5b192f7151ced1fa4d2ee8b53ae59f2a2"),
    ("P4", ("thomsen",), "0985d08d61baaea84c1f771f50c9e6a22f085e96794c971c5b35eb07d52e5aa1"),
    ("P4", ("forbidden",), "374b8ec9e77e06f448efd6ff410f556a6bb8961960d3a819ee0a6c8a5210d2ab"),
    ("P4", ("cohomology", "--class", "-6"), "70c94b3c4a8d36b141ae866937bd6deb591b8fd23c9ee3e5344c9c4989632eb3"),
    ("P4", ("cohomology", "--class", "3"), "42d7a55b31caea6855639fe2e95dc4a305acda72ac15a6fffdff44ea332783e8"),
    ("blowup", ("thomsen",), "5fe5ee92e92fe4b6ad27e9f8bab5367eed366cfe3855ffc3a4621202b0b6c72b"),
    ("blowup", ("forbidden",), "34b987ca260d08fdeacc87203674f30eac3b07c08f56c05c1c1c3b06153a2ea8"),
    ("blowup", ("cohomology", "--class", "-1 1 0 0 0 0 -1"),
     "857dcbb08b0f1c78485f890eb81f2556ff5b1dc9d1d4e85fa7c12b2e52215a2f"),
    ("blowup", ("cohomology", "--class", "1 -1 1 0 -1 0 0"),
     "6ff7d5b23a50779bc0c54fda73c6ad524a55f1ad086ceed495707dc3a3c23f4a"),
]


@pytest.mark.parametrize("name, argv, digest", FAN_FILE_GOLDEN,
                         ids=[f"{name} {' '.join(argv)}" for name, argv, _ in FAN_FILE_GOLDEN])
def test_fan_file_results_are_identical(records, tmp_path, name, argv, digest):
    assert fan_file_digest(tmp_path, golden_fans(records)[name], argv) == (0, digest)


def golden_fans(records):
    return {"P1": projective_space(1), "P2": projective_space(2), "P4": projective_space(4),
            "blowup": seeded_blowups(records, (10,), seed=7)[0]}


def fan_file_digest(tmp_path, fan, argv):
    """Exit code and SHA-256 of the sorted JSON `results` of one command on a fan file."""
    code, results = fan_file_results(tmp_path, fan, argv)
    return code, hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def test_every_digest_holds_on_python_integers(records, tmp_path, monkeypatch):
    # every exact path forced past its int64 bound, and every per-fan table built again on Python
    # integers (and cleared again, so that no later test reads one): the same bytes
    tables = (fan_module.ray_coordinates, fan_module.subset_minors, fan_module._completeness_problems,
              fan_module.face_masks, fan_module.primitive_collections, fan_module.primitive_relations,
              cohomology._patterns, cohomology._vertex_frames, cohomology._point_list, frobenius._line_frame)
    for module in (lattice, cohomology, frobenius):
        monkeypatch.setattr(module, "_INT64_SAFE", 0)
    fans = golden_fans(records)
    try:
        for table in tables:
            table.cache_clear()
        for argv, digest in GOLDEN:
            assert stdout_digest(argv) == (0, digest), argv
        for name, argv, digest in FAN_FILE_GOLDEN:
            assert fan_file_digest(tmp_path, fans[name], argv) == (0, digest), (name, argv)
        blowup = fans["blowup"]   # its tables were built by the commands above
        assert fan_module.ray_coordinates(blowup)[2].dtype == cohomology._vertex_frames(blowup).cofactors.dtype == object
    finally:
        for table in tables:
            table.cache_clear()


def fan_file_results(tmp_path, fan, argv, collection=None):
    """Exit code and `results` of one JSON report on a fan file (and a collection file)."""
    path = tmp_path / "input.fan"
    path.write_text(format_fan_file(fan))
    extra = []
    if collection is not None:
        extra = ["--collection", str(tmp_path / "collection.txt")]
        (tmp_path / "collection.txt").write_text("".join(" ".join(map(str, c)) + "\n" for c in collection))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["--format", "json", argv[0], "--fan-file", str(path), *argv[1:], *extra])
    return code, json.loads(out.getvalue())["results"]


# SHA-256 of the `results` of verify --fan-file --collection, recorded while a
# collection check still kept its boxes in a per-fan memo and the Bondal grid
# was a union of two grids: O, O(1), ..., O(n) on P^n (strongly exceptional and
# full), and the 30 Bondal-Thomsen classes of a blow-up of E2 with L = 2 in
# lexicographic order (full, not strongly exceptional: exit 1).
VERIFY_FAN_FILE_GOLDEN = [
    ("P1", 0, "a0b2a5f734baba9e5c5c7d890e8e38bb6a0c810325d8e43648e3c6a39724f92c"),
    ("P2", 0, "f9595bf9b3d6a5c04bf95d304093fb97d4421d524f7a7082c4038a55469d6c7e"),
    ("P4", 0, "c5ccf1a8e0dbfb66369e32e6683d96836702a51ac2b68a4e0b28cf9e071693f0"),
    ("blowup-E2", 1, "5e5f3caa06c359cbeaa8f060ae04eaae0388eb3c36f932fee967311c6b15efdf"),
]


@pytest.mark.parametrize("name, expected_code, digest", VERIFY_FAN_FILE_GOLDEN,
                         ids=[name for name, *_ in VERIFY_FAN_FILE_GOLDEN])
def test_verify_fan_file_results_are_identical(records, tmp_path, name, expected_code, digest):
    if name == "blowup-E2":
        fan = seeded_blowup(records["E2"].fan, 10, 9)
        collection = sorted(bondal_reference(build_pic_context(fan)))
    else:
        fan = projective_space(int(name[1:]))
        collection = [(k,) for k in range(fan.dim + 1)]
    code, results = fan_file_results(tmp_path, fan, ["verify"], collection)
    assert code == expected_code
    assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest() == digest


# SHA-256 of repr(decompose(fan, ctx, D, p).summands): every class with its
# multiplicity, for D = O and D = -K, and for one seeded twist per fan (twist_divisor):
# with F2 at 101, every prime of the thomsen workload's ladder on every fan
SUMMANDS = {
    ("P3", "-K", 31): "d903d6598576c21dfaea5448d0c9194d85bb2a8e74d092f5384262e706565fae",
    ("P3", "O", 31): "c52a54d4bf2e5b0553bb811b877754df9a9b5495d371d15e3cd47f1cc7b8e1d3",
    ("P3", "-K", 53): "be94ad8d102f1e9ee431c76b760ff3917272d57d1af97a4538fb4a8d3badd79c",
    ("P3", "O", 53): "41651d512ba89dda6376386ea7ef02c4bd0811d5deec3487c83728b00f25c355",
    ("B1", "-K", 31): "d53b350d70e249482acfb1a9fa468426389fef7ade2f0b085258128799f1fa02",
    ("B1", "O", 31): "146538bf34ef1e8cc11b4bc4d47b6d132ec61ee8e74a88152e979b06c60f77d0",
    ("B1", "-K", 53): "4a45d07ccc2a7feef03623ce52d4a7562950bb2fb48c09b5a0d19ed89adfcf79",
    ("B1", "O", 53): "b680e5dc7d459b3ae22a378cf8829b74b7d63694a28f023dd6e96347ac6b6332",
    ("B2", "-K", 31): "4d61f77f58e858714d03176582dccb7d0cf2c88843555d09703d7ee89d6d4296",
    ("B2", "O", 31): "fa6e5965a56be5a031a785edf034246e34981b3fb69f88b173346a22136a686f",
    ("B2", "-K", 53): "c8732368846f233cc6170e9e67e42572bf56074c9642c6161da78976d6c0bb6c",
    ("B2", "O", 53): "b017c4d1e0c01fd84324e1ea8cdcc980537e84b5d1659a754d92764f4ca7dbf8",
    ("B3", "-K", 31): "0967cfd6bb443905cf97b1e5b0820bb3275e73e611972222cedef513aa9d51f7",
    ("B3", "O", 31): "b704f2146d79a284aacaef8627ef1e117535a1e5a9526f1ce7e13be8023cf9d6",
    ("B3", "-K", 53): "abfb391f9c5bd5841191bcee88e80ef56fcbc35058660362c0adcb36578b52c5",
    ("B3", "O", 53): "efae1ead89f1536a60f0b7aec8cf595a31258d651158afd2c54b1b15cec34f74",
    ("B4", "-K", 31): "1e7a8f7833f2b2b829476fc22d54a047b384f1b1783780c523689419b92cd601",
    ("B4", "O", 31): "2c68ee0c303856e7dfc895c10fdb8a51672d8652c94786d7cb42dd3feb65eedf",
    ("B4", "-K", 53): "f55fde16b0e768416c6833cd55c81847c1e13f62bd1a2c8c874ec31f662bb06c",
    ("B4", "O", 53): "8fae86600b326756c8e01191d80e848392aa941ce6c9468f62ea53a1c632fd05",
    ("C1", "-K", 31): "1fafc0ede6129e668f17c785320f837acc19d38c7a9323eba96af8d52cc15c08",
    ("C1", "O", 31): "b7205c2ba65ffc3638d5e81b9eda8844457f1c7d2022859f8e40d0759d9c0a00",
    ("C1", "-K", 53): "9d47eb6ef380a4b8c7e1629a86bac33b1287dc51e9d3b1106b2a1de13e426f58",
    ("C1", "O", 53): "308de8ab39036392fba3caf0fcc8c15686a8ac931f042f7f6e0f6d0f0a4368de",
    ("C2", "-K", 31): "e986a7f62703da256ea6d4c6b77f5a89605c90cda74911b4a2b05470bcf66b9e",
    ("C2", "O", 31): "1fb479efe18f5ab2ccdf08d42e3096a58bcd5935687589d1eed12d6b46341255",
    ("C2", "-K", 53): "38c49f3e9816598075e105081917cf0b3a6786959fe9572e4da7fc5f684cebfb",
    ("C2", "O", 53): "fe878a2cd413cf2d9d47cd8a54f2865a163ed6429b92ae6bf3f4949a32d9e48a",
    ("C3", "-K", 31): "252b1c571dbda7425a8ca5b426cef6e700f40a3da47f8d428da19a08381db9a5",
    ("C3", "O", 31): "5170d1e2e2c09ebc3a09a54c047145b95f265b758b71440c8a3d7b501f21687d",
    ("C3", "-K", 53): "5c8b94b7cdb38aabed22acf0df729d2217c1205100c99adb24d66b32f44f0d3b",
    ("C3", "O", 53): "3a98d440ff5f1be5485629a7b5289df6b573440a75810ce20fd4ce54ce5ef3ef",
    ("C4", "-K", 31): "32b4da37072b7786224d9c4c6f5bb52eed63dbadfb1eea6786a645529c747135",
    ("C4", "O", 31): "3f6a796c80a8c39782e9a42ba7f0c5a00294464d05d92947ed477b41d1b6c621",
    ("C4", "-K", 53): "bfc8ebec5a6ab350a46e112508140ba94fe5871f57d271533b117de7cdaaf034",
    ("C4", "O", 53): "845e882f053ac7f0788b27a0eeed9b3816d7ee1344ba19c035cf39d1f85ae978",
    ("C5", "-K", 31): "4302b6c3836513a36957f873e78d66f483be1259676808a0d82349b1bd857d51",
    ("C5", "O", 31): "e81400db3df7102b37f8defeea2ea0fb10e118495bfe7b5312d9e82a29b78ee2",
    ("C5", "-K", 53): "9b786cbbb8377acabb5045fb3b5a651b320d6be949f0cb21f7e5bb82fa00ccda",
    ("C5", "O", 53): "9e496deee7c3fbca81299ced3fcc037a57bdf6abb579ddf9d82c17a70978cf56",
    ("E3", "-K", 31): "b0608d08b0cf2869e475ad114e2197c13a7096cb8046c04b866446be60f1ae89",
    ("E3", "O", 31): "8f8c8d7509080d23b5f66f732d1a03538f6687cce00d31144c5b6e75801d3562",
    ("E3", "-K", 53): "c42ade2ffd9831f5d2483ca6f0081f26f6f555904974a764680c90722271e0c6",
    ("E3", "O", 53): "5a09b9659c08aae4e1212723127cac3cb4f92b859934c15afc7136cf7c8ea4a2",
    ("F1", "-K", 31): "b991adcc7a370692f6893ec0462672a0e18fc53c07481c23308404254d15df08",
    ("F1", "O", 31): "25b9139dcb78d3b42d7503600c86851f57e45e91c834e0935afb33a18fe105d1",
    ("F1", "-K", 53): "10007f7568087953c6a4212c1b9b93ab3c3000c766e0b06903863d629d90e90c",
    ("F1", "O", 53): "2781fe93565955082d1c87512f863f7c8d4f3e65c4e82c617bf565854446173e",
    ("D1", "-K", 31): "54668e0270de8708f4530664bc938f96cb6927a4784adbca1574a96e18c8fd28",
    ("D1", "O", 31): "e373e1418022896fa62ead35291a004d494f9249fcb826e17b2823f807a61e01",
    ("D1", "-K", 53): "1aec473c4117382269d4a83e129d83d60dd50b82c481d304c8ccccba81deec83",
    ("D1", "O", 53): "509b0abec8982361180a31ff98c40b1d3a3b38177e58c85d2cb5aff587c2f19a",
    ("D2", "-K", 31): "b643da817494694fbcb5f57dc783a4ea0af671b0aa10558ab3b92422ded4309a",
    ("D2", "O", 31): "bc5adb49047956a98b57010328faa5ec274477a36f858a12fe818ac0415849b5",
    ("D2", "-K", 53): "c1c04f4f2acdf7d67bb1292cb891934e8e4099ef5e54a0704b66f3a7e24fcc44",
    ("D2", "O", 53): "8da425005fbde6215d2801fb231772ed5a153d05825e4967197079ab7cee7107",
    ("E1", "-K", 31): "e570df03b692cd288c6f2943f65dfa78ba24c409d1a6e2a962a6b1f65018aeec",
    ("E1", "O", 31): "094dc19975b4fbcbddd94c0049d3135822ccbe51463cabcffb5d793156f67de8",
    ("E1", "-K", 53): "91d5d2e05f2829cddc5e0d417fed4f9dd422dd1abd4419120d1bbe9d95298e80",
    ("E1", "O", 53): "d8b90d7d5b8014cb1e0948ba6f780e73e99c41d7d6e7fd47909fd626d1ce341a",
    ("E2", "-K", 31): "d84c2083514808921b5c88fbb524435479937ab0b4ec3a1bff25a34f35b7cbbb",
    ("E2", "O", 31): "b6053c58ef049a782fa0ad26a038e2571232d19c30bf4e9aba9962d917ce53ca",
    ("E2", "-K", 53): "fa9791a88032f1dfddba6191946f4934467779798b13944985ced62f8def33c5",
    ("E2", "O", 53): "2fb8a77ed2e0f7a6e12f48767477c9d0d0cf57ed261fb6c5ca7f8b0953067bcc",
    ("E4", "-K", 31): "09336e1e99597df065057ecc23ee347b2a7d1525743867fe8d753c490414a939",
    ("E4", "O", 31): "5e6d9628e16729b8979befddf60950f08d2e27920e657e3a717767243cec7681",
    ("E4", "-K", 53): "febe6fd8925b1a3fc6e8229209b19b1b1525a1bb52b38c341fbc2e94a8b12668",
    ("E4", "O", 53): "3e5a8991ecbf05376194f6a88f8ce921c6ced903c64442d7578516f0999f7b3e",
    ("F2", "-K", 31): "b7d93acebf359c6ccffe2c3c0a5917281da71f445b962051c9a4c9e061b62089",
    ("F2", "O", 31): "a1dc5b68a5e112b24efbe0334c108a180b4fedeeb572696291e91b266142910e",
    ("F2", "-K", 53): "f679bd1cf95d1fa7b64f1b2b5518842ad10b0c36f710b4e95fa5a7aca069373c",
    ("F2", "O", 53): "f8930e5d949394d42fc89e7f0d83faf8f90584b72e7b70d8df606053d838c214",
    ("F2", "O", 101): "babd76f584ae6ae43d596818193046f8a8b4cdbf2acb34aaabff2ca9d7ce574b",
    ("P3", "-K", 41): "434e32d93cbd608d7efe42ed6ba4ac4aac597d22e64d42f639564dd85e2d3569",
    ("P3", "-K", 43): "52b580ab7c7fe50321cb8091293544180d1a904dd79fcadc12df98f43bfbc148",
    ("P3", "-K", 47): "9f06bde349327a44c73fdef5c5c1b6b2d097795a0a2a52fb43e5bbd32b4e3377",
    ("P3", "O", 41): "bd28d7c59488549904feb8a1f13285bd6ca74e0da609920bc3eead0636497bc2",
    ("P3", "O", 43): "63d8e21060855049de97b1036201b23ce70f1f8069a4c39180dc2b4380f41155",
    ("P3", "O", 47): "82ef75e4a766c1db9302aad079c7eb81f4cefe837561d90d28607b723475502a",
    ("P3", "twist", 31): "15af1dc93273ac54ade11fade7c0e014cfaa8752357cd5bcb3bf8f6c848acb45",
    ("P3", "twist", 37): "cd0400664f813e9138979c1b674d8aed1b551e0d7f4359b09d937ff6211f1857",
    ("B1", "-K", 41): "04139add0be1a55bcc6f11060143defbc1233411f8c4fa66f01bcda6fd736c77",
    ("B1", "-K", 43): "51f02bcea00d7f80c0e97e86739f8214dd0b5fb2492e864b840ac885824f0304",
    ("B1", "-K", 47): "88a9b7605a4b45afedce6fb037e18d855846af3db8ff423b79816b183c208115",
    ("B1", "O", 41): "6d8fb5cefca08fabfbf6903e33cae95a05abaacc5bb16022ca2e17f7f5cf8ae4",
    ("B1", "O", 43): "ebc5461a10df9b8d36a2c8fa7ab31eae25a11864c3bbe989d2ff3b63b1418905",
    ("B1", "O", 47): "02dc2d876839a6224c3d0c65d902941d42dcf11d44030d142087fb7138109387",
    ("B1", "twist", 31): "e95cc95e4aceff3156c330be48446a88b5408668a2b5d8039172d287b2f8bd1c",
    ("B1", "twist", 37): "bf0ebfd1b97374aa05de597c0d4896548ff42df6cdcb0a7ffd2ec98836d2d5f7",
    ("B2", "-K", 41): "df2fbef12b73c2709828776e92f7cc4e22077c1f352559569817d823d222d885",
    ("B2", "-K", 43): "7797d88e8172da03bd03e6b3fd766377ad23e46d5d7a15dd88f3b880ffa3154d",
    ("B2", "-K", 47): "db68251cdeb028cdfdd1e559cd0a166b97feb125d2f418c09fc34912ddd130c0",
    ("B2", "O", 41): "961996b9b5ef78ecdecff3e76aac40522a793b5aacba7bad97b882975aebb4db",
    ("B2", "O", 43): "be9541cc4c27bf61bada18afa391e5e3bb97679c81c89f9ef616d0db1c5dddaf",
    ("B2", "O", 47): "cd7bc4702536f204b627788ebdb1c24d258c20876abacb245975c97a12a3b13f",
    ("B2", "twist", 31): "aa6c155810c38cfc6c480ff6050c3cc00cb30fa044dd1e22ab17f1e97ea6bf6f",
    ("B2", "twist", 37): "b97ed88d1a9510ce70178b2ef511c60d7bf93eb08a8d67362d371106173669f7",
    ("B3", "-K", 41): "13fe2ae080622779e99db3fb9a3b8b62f25181d83e9f24d99df50b9517b3da86",
    ("B3", "-K", 43): "5c48adb05eda3df2939025a4f7edb3de18607090ca913654f0e536cccf056c8e",
    ("B3", "-K", 47): "5a33fa6900df7d2f1442d16e4f7178683134da4d63071cce1c8081f382d1ef1a",
    ("B3", "O", 41): "fdad95e237c19f15fd90de3a74192f1943ff660ad192644c479ea297f82bc1e8",
    ("B3", "O", 43): "bc0ee8228e10ccbf0a03ef251daf043246ad7a2dda319f454ad63c86defd1d16",
    ("B3", "O", 47): "dcebe5c52c177daf0a4062c180417a550b6af84ea9cc9ab3758a632051fcd919",
    ("B3", "twist", 31): "beba73b108ca5a65b8fb6cf17e2eafe56caf95c0326dcd953b44eb3426d81c3e",
    ("B3", "twist", 37): "3f9c70da613fbb872dfbab9b94ef67b0bb233ba41718ef220a3eb89e9e636d21",
    ("B4", "-K", 41): "1355e884fa5e4481e6b5da211f0dd7ccaf00fe256c56b94d556a04c8d701f758",
    ("B4", "-K", 43): "c6b357254a23e451a503e6a3e9d1faa823e61e7469c3ff55ba03a5a1440be64a",
    ("B4", "-K", 47): "c384f0598f007614858b9d61c61c8f094843155200eacb56a4fb4fe6b5f32d01",
    ("B4", "O", 41): "a601162b0bca523f42984656bd97f00d895edcd61e41ddc6e729c64e0f2a7453",
    ("B4", "O", 43): "d4f433dabefbf86cee9ac162376fa6ca1eb1201a4bf68f10d681f43763672e93",
    ("B4", "O", 47): "db8d3d696ce84792306f0020e4ed31631e1ad0e1eae62429bc29c1df7893370b",
    ("B4", "twist", 31): "3e08fd87eb7db69894c1ca3389e834ce9f659f0e3ff298197aa4bc5b51ed5470",
    ("B4", "twist", 37): "0ee4b0c469348c435c865fb5dc715fd2fd5e805b146fea25fa6bb46b8a09c721",
    ("C1", "-K", 41): "282508d8eab5eaea57b845e2ceedaf9d4257b5dafb7979ef7c0cd53fe06cc94c",
    ("C1", "-K", 43): "2f95ab1d7ed636bd68e7d942b9f4c7e7269911779e30dd460705c978316f1807",
    ("C1", "-K", 47): "e1b915ae1c58c0b52870370d30e1e275a8df325b8d04b9275062a808d6a7f390",
    ("C1", "O", 41): "9a3ab269dece2db11b9a687d5f6dca5d37ab0fd320789eb79a8ec840505c7457",
    ("C1", "O", 43): "87d902d9164cf9a5251ad66ec0146b9ca6dbdeea44a652e09c95d50c87cca8b2",
    ("C1", "O", 47): "f7fb402fff58752fe2d5a6342d5a7d743a438674cc60d51ff48ad8a98ab6dfc5",
    ("C1", "twist", 31): "580f743407c08f278e79a56ee6794d1b094a3f04a056a23466ad7548ab5ede48",
    ("C1", "twist", 37): "87825434c75c44678586c4127ba20e1e9c35c751b567889a46f35147792b3ec6",
    ("C2", "-K", 41): "4560fb18e49580a6b4e3373434786b02c9efe8d60ad9de1fdeba6e28c1f80687",
    ("C2", "-K", 43): "9d40dfc76410986a2a770759c5c4056c69e8ce9b9ae378d0911e426a0a172124",
    ("C2", "-K", 47): "0439b9fa446820496051cc3df6c6fd4c8f3350e6f955aaee216b1ca32a0a5aba",
    ("C2", "O", 41): "0e4cc015e083c2351ba58ca04b5c28f8071099aca76fc869d8efc409efbc1263",
    ("C2", "O", 43): "f299355e7ad7449477ceae4d8c039923f90e1eabfbf7c85bfe5ab1f69452e0fe",
    ("C2", "O", 47): "f3ecfbd1510d48b120257fdbcec30539b8ffdf480fdfd3a9d3944d288b0e6ee2",
    ("C2", "twist", 31): "4a89279ddfacccfc399125a4970ebb0a2ef16460943cf6bf208dafcd846fef21",
    ("C2", "twist", 37): "756d3cb6ff5dd1ac1a725fe612dfd260aefdc9f2c5903cc25a37eb49496d78af",
    ("C3", "-K", 41): "37246f34f9df66e5d9a6e7a2254f92efded4b3b42f2929597e0559362ebe4a88",
    ("C3", "-K", 43): "f9c91711b7fed39d1d621aae06699803d894e888b2c120471482b6398d37b337",
    ("C3", "-K", 47): "63b1ff6680561abdf4b65c42b84f65e80727890d1535bf7e0d81c1fa3c113b28",
    ("C3", "O", 41): "f9daab1f83420bbf4c6659c64e9d798c5ea7c5ee5c133f5cbfc04914fa88ab71",
    ("C3", "O", 43): "a723f0b98b8989fca30e12794b74b3fe4afa3bb4d153be56ec37dfcd81af9d01",
    ("C3", "O", 47): "df6e010fbe8189c9c8a67231417f3ec80a8f6a2dc1adcc14f6c91475c3b671e5",
    ("C3", "twist", 31): "0f2d2e265e6e99e12ceea122a862b50364d49041a5e55d648e01de7cdc63ad1e",
    ("C3", "twist", 37): "dc7a86e7181ffcd4634d93ca5ab756cebe808af92bd737b5682629aaa09f601f",
    ("C4", "-K", 41): "3469a67b1afe534abc359df20482c59633398efefa70749579f410959c0306fa",
    ("C4", "-K", 43): "402afdcccd91601d69f2a3679b8f0982ae1facdfc8b69763e1a22dc9a8c4fb1e",
    ("C4", "-K", 47): "45855ee6ce9826687bb4766ca3b199289235fae5bb6e3d49aaeb522f18145f69",
    ("C4", "O", 41): "997c581861146cc2410d45f1d698fc8fb966be844de37020dfff0600a5daae86",
    ("C4", "O", 43): "43a891e327211fe022c8e50b98b15de5d5d675f2192990de62893a35f016cb85",
    ("C4", "O", 47): "6ac4d797affa25592151bde12d103603cb494aadc3a15b55edf5edaf900c564a",
    ("C4", "twist", 31): "2dac911879a97be44e83721ee661e658d7733a6784a3f27618f2c41fdd208439",
    ("C4", "twist", 37): "b852344ff1d8d7297dd7631f6deaf40fc32535802a1c03559a14fd1d54f890f9",
    ("C5", "-K", 41): "3e0aa78368914725c7eeefc824d18f26d27b53f1988121c1a2e556b853748458",
    ("C5", "-K", 43): "bb7182e15a8d8641599bc1c0b149077b6abeb3ccdb15345b521caf413de22cef",
    ("C5", "-K", 47): "409a73f09e78f0a3824274ced630e516519563510d927efa7a02afa4a3ce52cd",
    ("C5", "O", 41): "904e585aad956595589fb70202cdec2f3ec4dc0bc9254e0fabe5f1ddf43504db",
    ("C5", "O", 43): "6c3388d6f04bf1e42062f4ea67fdc77813175797a6a06caac3803f5b5fd5a74d",
    ("C5", "O", 47): "33651507853d82c30bc6c002d67a0753886709af04f86751aa22394af89c5689",
    ("C5", "twist", 31): "32bb6204ff8ae16961d2bcd9dbe6b05b01ebc15534fdf53c8cdd72a92a072eaf",
    ("C5", "twist", 37): "c9ab325b0a800572b10fc3084a7cd248056f0aee2d948087eab27f99b6b273b5",
    ("E3", "-K", 41): "d0c7f5ac2e1ff07ca04e4ccbfee6382d0ca556c35df27884ceae34dd99fb4d95",
    ("E3", "-K", 43): "fa46a07036702255943c06e3cf1d93d9ff5e3ec5cab774583e984b44bb4a7649",
    ("E3", "-K", 47): "3fd20bec76b8b93ce32145ee62283e224d5f99457acb98cff524d7d97a63de12",
    ("E3", "O", 41): "cdf6c0c7be26104f920fa6a8e78e7e777eb64c874e4ca6ae7a6bd3b34bbd0cde",
    ("E3", "O", 43): "b7895ec00e94bd3cdb3838bf05f4ed4024d775d0685e0179cc7a4acc84afdc4c",
    ("E3", "O", 47): "2dd06ec51ed8e5382c9641c46d699fa07b5eed9cd30a3c3321b6d41b12a3e32c",
    ("E3", "twist", 31): "0dd955b8bf07b7950ab4b3920e522edd6d27e2c24e513251ef06960650b9e394",
    ("E3", "twist", 37): "c1f5546c93e0244fa4c37010afc64b607b807c49a218b7001b5eba9972722bb6",
    ("F1", "-K", 41): "ddb7a756b1441fdf63512107500b7280349c264ed0cbb97e3ee7b16fb3080a96",
    ("F1", "-K", 43): "85b6d685ba2b2db929abd69cef8ce381c56ee088520828ac8b4cb9d27def2a28",
    ("F1", "-K", 47): "f669d0eb0292bcf6d28b302d6c8db3e31a42f0e2d201fa5d604522de282c3989",
    ("F1", "O", 41): "8dc23f6260e0e8a57a940001c8756eb4cbcfb242606fee2397342b5e43061115",
    ("F1", "O", 43): "d72adcd477b6341e7acefea58cb4029c5898f01b574b52bfade1138a5f11d153",
    ("F1", "O", 47): "c110fa9f2ed56c70b554880fe8d87e29e799715872ad876659f8e01643ef5590",
    ("F1", "twist", 31): "279123bfe286c3ee19bdf94049cc71798b85b5f923a067e1852097612c284a10",
    ("F1", "twist", 37): "e8c341a9058ae7ea21b63deb151d26b4bc8102a1b913a50def2c3913ea7cdec9",
    ("D1", "-K", 41): "6ae050c91679e7fd753fe00c4c638154d38464f2d37f027c5a0126c3ebb470c2",
    ("D1", "-K", 43): "d16ad27425d3f5856468b241f9217e9bc283ea2c1e8e97893c881a6413fe64b7",
    ("D1", "-K", 47): "644966244394ef9006d762154eb9ed39256e461a3f2c0be8cc7e6e614c1106d9",
    ("D1", "O", 41): "b4ade56b482e7675cd22f493852ccf5823bf2ec9254f786f61179aa9a0964ec0",
    ("D1", "O", 43): "29fb2aa2090b14c6d0768cd2478cc5c4074ea63b051128076405c97b963ee556",
    ("D1", "O", 47): "87da008f59df9d1015641761a5a2d92a75af7272aea284fb02e037e56404e4cd",
    ("D1", "twist", 31): "0b15a87a6f30e066c8cc2f5a1e2176180a62c095d03ebe6cb1ed7324f4cfcd31",
    ("D1", "twist", 37): "0a09194ebdf7c9bf5b3d3b138ff957c639b72d565216ff549b58c5375292aacc",
    ("D2", "-K", 41): "ed9588e6584038700135fd4a0df31014ba4c13ff4d9b696781f1a3225319292e",
    ("D2", "-K", 43): "4a578f8ffe0c672ff247ae1297ba152906c66a2a44a403811945ea787a8412d8",
    ("D2", "-K", 47): "2c5d8cb41e702450ca183ff0c53d32a8e262d0dbf2398d4e397c9506cbed6645",
    ("D2", "O", 41): "6e022226198d842f350a2575aebea30e03aeac197a745857815f7ca1ad8eeb49",
    ("D2", "O", 43): "0b05e4e02e69000242a4a2ea61666464ec78722902556d3c36bbf9b8c28bdda0",
    ("D2", "O", 47): "258f4c948880a9ebed8be4d90f2ffc5887028583065c1a16ded3c14e35d80ee7",
    ("D2", "twist", 31): "acf7c02a76d899ced27cef0687bee72b9189010e0dee5fc2f8e07a1e98ab7d34",
    ("D2", "twist", 37): "fc43470f027d81d1acf362b0fdae8a14453715281c511fd00640eaa91ab7a922",
    ("E1", "-K", 41): "e26c626e48f237cf229cc462d09f51fbb07a4d4ec9a182e4c3e214c08ccfb711",
    ("E1", "-K", 43): "bc2b1a644220864a34a28b674e793ae955771bb1bc2ed4464fd5ca72a0cd1391",
    ("E1", "-K", 47): "5a2f2739565c2ba999b20dcb0861fe5031b7216a74d772e0865155b6a6545366",
    ("E1", "O", 41): "99f4a23ea39f8ef95256e0c6427afe69be5d3e256d2e6eb7296481d747d6ecc6",
    ("E1", "O", 43): "79563a8c63f266fb673d7029fc288d9130dab7d1d6e4af9ef3941838a224d03e",
    ("E1", "O", 47): "9108e3bbe6bb53e68ea0693b855301defa85976bbb2803caac742091a1912d4a",
    ("E1", "twist", 31): "8bd47f1439950511f1004b110934de2ddafb3bc360df8ab2e8eb59ef43e66902",
    ("E1", "twist", 37): "f75a24ab4a812a5cd9c359025b4f5d89c5dcf09c272918737b2bb2a0bda8506e",
    ("E2", "-K", 41): "ba9e5686056a35df09f3f515a829e52bc259292c4b97ca5f0c7b7d1b47dcfe34",
    ("E2", "-K", 43): "d9321fb3b63dcddd3b98f22b4db876f0181c064ea92e305ba1a2c9e68f8bccb3",
    ("E2", "-K", 47): "95eb4c4552762471cb01217cdfbd0173e9216dcd96d303da3907177669730d1f",
    ("E2", "O", 41): "802ba5c4b57c6e9935172df30680c203b70de25dbe8e76868fa0a38111c61b27",
    ("E2", "O", 43): "5c37d5707546bcdd9fc5399a09ba03764cee9e610f141d98a8efdf4c153f7702",
    ("E2", "O", 47): "79424fdc95b002dc53f1e393ffeb7164b821904dc8c8a8737f77caa772de3dbb",
    ("E2", "twist", 31): "94cac6eb7e63939e7153fa41fa7534a2ea8f77f2a2fa74d0dd7e03278635af8e",
    ("E2", "twist", 37): "6ac1a85bbe29eab072e77973e96499fb3c5d9eefed93921b54bb35694129284a",
    ("E4", "-K", 41): "79fc7277e6e124b4f04ab1e6c60cb112debf6059dc6ce0e7468dc32e0619dddb",
    ("E4", "-K", 43): "cd103f5d5ba1344b1252d0b5916bd49c9373f92e8c4866f5920145a054fbde39",
    ("E4", "-K", 47): "6b1c8fb231073d1ffc259715ddeee54a6720c71b0d17d02123158f828140fc84",
    ("E4", "O", 41): "4b6468efa307c76bd1f5c1dd4a4eff3b92b8956b268ed95666fad0aa251d74a7",
    ("E4", "O", 43): "6ad7f8f310252dc500a143516d016decd4f3fb486c1e85ffd2131def8a0c0ffe",
    ("E4", "O", 47): "b2c03bb2d7d0879aa91bbdf4cabc0ad0ae78eb4b3d0a4388ae1dca4e4d2b99c6",
    ("E4", "twist", 31): "42a1f1c45a6154e70f8222ae458e9fe1af77da2f79117bcfd75ba54a21dbaf20",
    ("E4", "twist", 37): "8784a0d885843bfdd9b8742c20591f90a38a1abc6bf69d70f9cf03396718b663",
    ("F2", "-K", 41): "e783a1a204d7d3f690640c5ed2ed9a61e8c7a5dff8ed53afc886ed48514c777e",
    ("F2", "-K", 43): "456acd8a570fc72d38c751667707aabf5b32652d98928e50255127e962c3b366",
    ("F2", "-K", 47): "e433cdeb328a235c632dcb68f20cd105fa563f4389cca6b1f0486857f7e5a46f",
    ("F2", "O", 41): "a63815881c6866776c756bf47f96b1bbc57263cbf515e7bbe97822344ecc0e7c",
    ("F2", "O", 43): "7cb44cfa137ae71b9632fa050bee092110c85f5658b40cb9d30242d9b46b6088",
    ("F2", "O", 47): "d2cf8e3b1a01f8b918c22c321db1ab1c2cea3f006512566a5ac892f5032e34b5",
    ("F2", "twist", 31): "c236e2334ad06904913daec061f59b02b60f6b0a194aba2e8361702140d3c364",
    ("F2", "twist", 37): "b553cc34ebfba871ebbe77c960f2ee2a3a42415d5388657c731d3dae5adc6cf9",
}


def twist_divisor(name, n_rays):
    """The fan's seeded twist, entries in [-3, 3] as the thomsen workload draws them."""
    rng = random.Random(f"twist:{name}")
    return tuple(rng.randint(-3, 3) for _ in range(n_rays))


@pytest.mark.parametrize("name, divisor, p", sorted(SUMMANDS), ids=lambda x: str(x))
def test_multiplicities_are_identical(records, contexts, name, divisor, p):
    fan = records[name].fan
    D = {"O": (0,) * fan.n_rays, "-K": anticanonical_divisor(fan), "twist": twist_divisor(name, fan.n_rays)}[divisor]
    summands = decompose(fan, contexts[name], D, p).summands
    assert hashlib.sha256(repr(summands).encode()).hexdigest() == SUMMANDS[name, divisor, p]


DEMOS = {
    "01_fans_and_classification.py": "653bf9ff10d59e37d744dbf694af503b7a156a1b59436266f8daca0600c8f465",
    "02_frobenius_splitting.py": "3d4a195be643403cd61c57adc259f37a47ba732ad073059bed4936269ebd5491",
    "03_cohomology_and_forbidden_sets.py": "ee3b2bb1dac0c20886246533d011f5c680ab0b6127cfed593bff07a92c3db652",
    "04_exceptional_collections.py": "fae2f8cfe45eaf022d025444eb7859bbfa79f892511f207af100dd6a15da507f",
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_stdout_is_byte_identical(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                          capture_output=True, check=True, timeout=600)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[script]


# SHA-256 of repr() of every Pic context's (class_map, rep_map) entries and
# every maximal cone's inverse: the 18 catalog fans on their stored basis and
# on the Smith basis, 24 seeded blow-ups with 9 to 16 rays, and P^1 to P^9.
PIC_CONTEXTS = "be89e48d4dbf86a8161ddeb760979bfa4fdcc836c8b4ddee1605f6465b18c060"


def test_pic_contexts_and_cone_inverses_are_identical(records):
    cases = [(rec.fan, basis) for rec in records.values() for basis in (rec.pic_basis, None)]
    cases += [(fan, None) for fan in seeded_blowups(records, tuple(range(9, 17)) * 3, seed=11)]
    cases += [(projective_space(n), None) for n in range(1, 10)]
    pinned = []
    for fan, basis in cases:
        ctx = build_pic_context(fan, basis)
        pinned.append((ctx.class_map.entries, ctx.rep_map.entries,
                       tuple(cone_inverse(fan, cone).entries for cone in fan.max_cones)))
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == PIC_CONTEXTS


# SHA-256 of repr() of (validate_fan(fan).problems, _completeness_problems(fan)) for 115 fans: five broken or
# reshuffled copies of each catalog fan and of five seeded blow-ups with 9 to 13 rays (87 of them fail)
FAN_VALIDATION = "d076fd7596be83c77dedfcfe3f55e58b18b61cdb8d6fa22b092a7e5f79aab60d"


def test_fan_validation_messages_are_identical(records):
    pinned = [(validate_fan(fan).problems, _completeness_problems(fan)) for fan in broken_fans(records)]
    assert hashlib.sha256(repr(pinned).encode()).hexdigest() == FAN_VALIDATION


def broken_fans(records):
    """Each fan with one cone dropped, one cone doubled, one apex swapped for a random ray, one ray negated, and
    its cones and their rays shuffled (Fan() keeps both orders)."""
    rng = random.Random(33)
    fans = []
    for fan in [rec.fan for rec in records.values()] + seeded_blowups(records, range(9, 14), seed=33):
        rays, cones = list(fan.rays), list(fan.max_cones)
        k = rng.randrange(len(cones))
        fans.append(Fan(fan.dim, fan.rays, tuple(cones[:k] + cones[k + 1:])))
        fans.append(Fan(fan.dim, fan.rays, tuple(cones + [cones[rng.randrange(len(cones))]])))
        k, i = rng.randrange(len(cones)), rng.randrange(fan.dim)
        swapped = cones[k][:i] + (rng.randrange(fan.n_rays),) + cones[k][i + 1:]
        fans.append(Fan.make(fan.dim, rays, cones[:k] + [swapped] + cones[k + 1:]))
        j = rng.randrange(fan.n_rays)
        fans.append(Fan(fan.dim, tuple(rays[:j] + [tuple(-x for x in rays[j])] + rays[j + 1:]), fan.max_cones))
        shuffled = [tuple(rng.sample(cone, len(cone))) for cone in cones]
        fans.append(Fan(fan.dim, fan.rays, tuple(rng.sample(shuffled, len(shuffled)))))
    return fans
