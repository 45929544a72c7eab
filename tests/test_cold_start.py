"""What a fresh process imports.

`import drtests` and `drt test` import neither scipy.signal nor the
scipy.stats it pulls in; the first AR(1) draw imports scipy.signal, and a
pool run imports it before it forks, so that no pool process imports it
again. The pytest session has imported scipy already, so the checks run in
two fresh interpreters, side by side.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import drtests

SRC = str(Path(drtests.__file__).resolve().parent.parent)

CLI_AND_DRAW = """
import hashlib, json, sys
import drtests
from drtests import cli

def loaded():
    return [name for name in ("scipy.signal", "scipy.stats") if name in sys.modules]

seen = {"import": loaded()}
seen["test_exit"] = cli.main(["test", sys.argv[1]])
seen["test"] = loaded()
# one basis function: each value's basis product is one rounded product,
# whatever the BLAS
config = drtests.SimConfig(
    n_per_group=(3, 4), n_points=16, n_basis=1, mean_shape="linear", xi=1.0,
    noise="ar1", rho=0.7, seed=20261019,
)
values = drtests.generate_dataset(config, 3).values
seen["draw"] = loaded()
seen["sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
print(json.dumps(seen))
"""

# the sha256 of the draw above, pinned while simgen imported scipy.signal at import
DRAW_SHA256 = "2eea24ce5ddb1667a951069006d5b4c993fc7297563ec23c66a1abaab7756685"

POOL_RUN = """
import json, sys
from drtests import ExperimentGrid, NoiseKind, SimConfig, harness, run_power

signal_at_open = []

class RecordingPool(harness.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        signal_at_open.append("scipy.signal" in sys.modules)
        super().__init__(*args, **kwargs)

harness.ProcessPoolExecutor = RecordingPool
# 2 shifts of n·S = 800 at 328 replicates: the fewest curve values that
# reach 2 · _SHARE_MIN, so workers=2 cuts two shares and opens one pool
grid = ExperimentGrid(
    base=SimConfig(n_per_group=(10, 10), n_points=40, n_basis=10, noise=NoiseKind.AR1, seed=9),
    n_points_values=(40,),
    group_schemes=((10, 10),),
    xi_values=(0.0, 1.5),
    replicates=328,
)
assert 2 * harness._SHARE_MIN <= 2 * 328 * 800 < 2 * harness._SHARE_MIN + 1600
pooled = run_power(grid, workers=2)
print(json.dumps({"signal_at_open": signal_at_open, "same_counts": pooled == run_power(grid)}))
"""


def fresh_python(code, *args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else os.pathsep.join([SRC, path]))
    return subprocess.Popen(
        [sys.executable, "-W", "error", "-c", code, *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def last_json_line(process):
    out, err = process.communicate(timeout=60)
    assert process.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def test_scipy_signal_loads_at_the_first_ar1_draw_and_before_a_pool_forks(tmp_path):
    csv = tmp_path / "w.csv"
    csv.write_text("id,group,0.1,0.4,0.9\na,x,1,2,3\nb,x,4,5,6\nc,y,7,8,9\nd,y,1,3,2\n")
    # both interpreters start before either is waited on
    draw = fresh_python(CLI_AND_DRAW, str(csv))
    pool = fresh_python(POOL_RUN)
    seen, pooled = last_json_line(draw), last_json_line(pool)
    assert seen["import"] == [] and seen["test"] == [] and seen["test_exit"] == 0
    assert "scipy.signal" in seen["draw"]
    assert seen["sha256"] == DRAW_SHA256
    assert pooled == {"signal_at_open": [True], "same_counts": True}
