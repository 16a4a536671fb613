import os
import re
from collections import defaultdict
from pathlib import Path

# The subprocess tests (``python -m alphaeff``, the demos) import the
# same source tree as the in-process ones.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

_CRITERIA = {
    1: "worked-example exactness",
    2: "simulator fidelity on bundled scenarios",
    3: "round-trip identity alpha_eff(amdahl_speedup(a,k),k)=a",
    4: "fixture cross-consistency against published serial fractions",
    5: "half-efficiency processor counts",
    6: "surface/simulator oracle equivalence",
    7: "monotonicity and scheduling suite",
    8: "harness measurement accuracy (machine-dependent)",
    9: "end-to-end CLI pipeline and CSV round-trip",
}

_PATTERN = re.compile(r"test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL/SKIP line per acceptance criterion."""
    buckets = defaultdict(set)
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            match = _PATTERN.search(nodeid)
            if match:
                buckets[int(match.group(1))].add(status)
    if not buckets:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        statuses = buckets.get(num)
        if not statuses:
            continue
        if "failed" in statuses or "error" in statuses:
            verdict = "FAIL"
        elif statuses == {"skipped"}:
            verdict = "SKIP"
        else:
            verdict = "PASS"
        terminalreporter.write_line(f"criterion {num}: {verdict} - {_CRITERIA[num]}")
