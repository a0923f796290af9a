"""Byte-identity of the CLI's reports: SHA-256 of the stdout of each command.

The digests were recorded before the per-cone Thomsen reference left the
package.  A change that alters any byte of these reports (a verdict, a
class, a key order, a label) fails here; a change that keeps them passes
without touching this file.
"""

import contextlib
import hashlib
import io

import pytest

from toric_exc.cli import main as cli_main

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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
