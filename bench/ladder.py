"""Growth ladders: how large a quotient certificate still finishes.

Each ladder builds certificates for growing sizes, one size per fresh
interpreter, one child at a time, and stops at the first size that fails:
over the wall-time cap, over the memory cap (`RLIMIT_AS`, set inside the
child only), or not verifying after a JSON round trip.  Its frontier is
the largest size that passed.

    python3 bench/ladder.py KIND SIZE CAP_MB    (one step; prints one JSON line)
"""

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def step(kind: str, size: int) -> dict:
    """Build, serialize, reload and check the certificates of one step:
    chain: descending_chain(size); family: infinite_family(4, 6, size);
    circle: minimal_bs_epi on the circle (2 3)^size, which has size edges."""
    import gbs
    import workloads

    if kind == "chain":
        args = (workloads.chain_certs, size)
    elif kind == "family":
        args = (workloads.family_certs, 4, 6, size)
    else:
        args = (workloads.circle_certs, gbs.circle_graph([2, 3] * size))
    t0 = perf_counter()
    certs, texts = workloads.build_and_dump(*args)
    t1 = perf_counter()
    ok = all(workloads.verify_hom(text) == (True, True) for text in texts)
    t2 = perf_counter()
    return {
        "ok": ok,
        "certs": len(certs),
        "bytes": sum(map(len, texts)),
        "build_s": t1 - t0,
        "verify_s": t2 - t1,
    }


def run_ladder(kind: str, start: int, max_steps: int, cap_s: float, cap_mb: int) -> dict:
    """Run sizes start, start+1, ... until one fails or max_steps passed.

    Outcomes per step: "ok"; "over-cap" (timeout or MemoryError, the
    expected end of a ladder); "wrong" (a certificate that does not verify,
    or any other error: a failed operation)."""
    steps = []
    frontier = start - 1
    for size in range(start, start + max_steps):
        cmd = [sys.executable, str(Path(__file__).resolve()), kind, str(size), str(cap_mb)]
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            out, err = proc.communicate(timeout=cap_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            steps.append({"size": size, "outcome": "over-cap", "detail": f"over {cap_s} s", "seconds": perf_counter() - t0})
            break
        seconds = perf_counter() - t0
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        if result.get("ok") is True:
            steps.append({"size": size, "outcome": "ok", "seconds": seconds, **result})
            frontier = size
            continue
        if result.get("error") == "MemoryError" or "MemoryError" in err:
            outcome, detail = "over-cap", f"over {cap_mb} MB"
        else:
            tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            outcome, detail = "wrong", result.get("error") or tail[0]
        steps.append({"size": size, "outcome": outcome, "detail": detail, "seconds": seconds})
        break
    return {"kind": kind, "frontier": frontier, "steps": steps}


def main(argv) -> int:
    kind, size, cap_mb = argv[0], int(argv[1]), int(argv[2])
    import resource

    limit = cap_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = step(kind, size)
    except MemoryError:
        print(json.dumps({"error": "MemoryError"}))
        return 3
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
