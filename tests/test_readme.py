import contextlib
import io
import re
import shlex
from pathlib import Path

from l1gram.cli import build_parser

README = Path(__file__).parents[1] / "README.md"


def test_library_sketch_runs_and_its_comments_hold():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    ns = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(blocks[0], str(README), "exec"), ns)
    dec, rho, pi, cert = ns["dec"], ns["rho"], ns["pi"], ns["cert"]
    assert dec.k == 1 and dec.total_cost == 9.0  # == n * tr(A)
    assert rho.lower == rho.upper == 0.5
    assert rho.certificate == "exact" and rho.witness is not None
    assert pi.method == "dual_ap"  # the bracket closed
    assert pi.lower <= 0.5 <= pi.upper  # piplus = 0.5 at A = J / 4
    assert cert.ratio.lower >= 1.0 and cert.cn_lower >= 1.0


def test_cli_lines_parse():
    # parsed, not run: a documented flag that the parser drops fails here
    blocks = re.findall(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    lines = blocks[0].strip().splitlines()
    assert len(lines) == 6 and all(l.startswith("l1gram ") for l in lines)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
