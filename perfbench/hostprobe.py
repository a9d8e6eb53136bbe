"""A fixed stdlib-only Python workload that measures how fast the host runs
Python right now: start-up and imports, compiling source, building and
walking object graphs, pickling, JSON.  It uses none of the program's code,
so a change to the program cannot move it.

    python3 perfbench/hostprobe.py      # prints the seconds since its imports began
"""

import time

START = time.perf_counter()

import ast  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402


def work() -> int:
    rng = random.Random(12345)
    source = "\n".join(
        f"def f{i}(a, b):\n    c = a * {i} + b\n    return [c + k for k in range(a % 7)]\n" for i in range(300)
    )
    tree = ast.parse(source)
    code = compile(tree, "<probe>", "exec")
    events = [
        {"op": rng.choice(("add", "load", "store", "br")), "pc": i, "deps": [i - 1, i - 2], "val": rng.random()}
        for i in range(40_000)
    ]
    blob = pickle.dumps(events, protocol=pickle.HIGHEST_PROTOCOL)
    back = pickle.loads(blob)
    counts: dict = {}
    for event in back:
        counts[event["op"]] = counts.get(event["op"], 0) + len(event["deps"])
    text = json.dumps(back[:10_000], sort_keys=True)
    order = sorted(back, key=lambda e: (e["op"], -e["pc"]))
    return len(code.co_consts) + len(blob) + sum(counts.values()) + len(text) + order[0]["pc"]


if __name__ == "__main__":
    work()
    print(time.perf_counter() - START)
