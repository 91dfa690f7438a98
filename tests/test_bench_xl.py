"""The XL scaling bench script runs end to end at a small tier.

CI runs ``benchmarks/bench_scaling_xl.py --smoke`` at 1000 versions; this
pins the script's payload contract at a size cheap enough for tier-1,
so a broken import or a schema slip fails here first.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_scaling_xl.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_scaling_xl", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def all_keys(node):
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from all_keys(value)
    elif isinstance(node, list):
        for item in node:
            yield from all_keys(item)


def test_small_tier_payload(tmp_path):
    out = tmp_path / "BENCH_xl.json"
    assert load_bench().main(["--sizes", "200", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_plans_identical"] is True
    for key in ("edmonds_rounds", "bmr_lmg_rounds"):
        rounds = payload[key]
        assert isinstance(rounds, int) and not isinstance(rounds, bool), key
    (tier,) = payload["tiers"]
    (bmr,) = [r for r in tier["solve"] if r["solver"] == "bmr-lmg"]
    assert payload["bmr_lmg_rounds"] == bmr["moves_applied"] > 0
    assert [r["plans_identical"] for r in tier["solve"]] == [True, True, True]
    stale = [k for k in all_keys(payload) if "rescan" in k or "speedup" in k]
    assert stale == []
