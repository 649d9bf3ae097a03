import contextlib
import io
import re
from pathlib import Path

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
