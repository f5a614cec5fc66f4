"""The traced benchmark run (perfbench/tracing.py) wraps each function in
LAYERS where its caller looks it up, e.g. `stopgo.engine.phase_at`. A name
that moves or disappears would crash only a traced run, so check here, in a
fresh interpreter that imports stopgo the way the benchmark does, that every
place still resolves to a callable."""

import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = """
import sys
import run, tracing
sys.path.insert(0, str(run.SRC))
modules = run.fresh_import()
for _, places, _ in tracing.LAYERS:
    for place in places:
        try:
            owner, attribute = tracing._owner(modules, place)
            ok = callable(getattr(owner, attribute))
        except (AttributeError, KeyError):
            ok = False
        if not ok:
            print(place)
"""


def test_every_traced_place_resolves():
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=PERFBENCH,
                            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
