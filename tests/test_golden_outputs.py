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
# multiplicity, for D = O and D = -K
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
}


@pytest.mark.parametrize("name, divisor, p", sorted(SUMMANDS), ids=lambda x: str(x))
def test_multiplicities_are_identical(records, contexts, name, divisor, p):
    fan = records[name].fan
    D = (0,) * fan.n_rays if divisor == "O" else anticanonical_divisor(fan)
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
