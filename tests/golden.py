"""Golden outputs: the stdout of a fixed set of CLI requests, run in-process
through ``selfnorm.cli.main`` and recorded in ``tests/data/golden/``.

A check compares a fresh run with the record token by token.  Text and
integer tokens must be equal; every other number must agree within 1e-12
relative, so the record does not depend on the machine's BLAS kernels.

    python tests/golden.py            check the record; exit 1 on a difference
    python tests/golden.py --update   rewrite the record and print, per file,
                                      the largest relative change of a number
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

RECORD = Path(__file__).resolve().parent / "data" / "golden"
RTOL = 1e-12

_CUTOFFS = ("pi", "pi/2", "pi/4", "3pi/4", "1.0")
_MODELS = ("m1", "m2")
_STUDIES = ("3a", "3b", "4a", "4b", "fig4")
# a number: its sign, digits, fraction and exponent in one token
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")
_INTEGER = re.compile(r"-?\d+")


def requests() -> dict[str, list[str]]:
    """File name -> the requests recorded in it.  ``{m1}`` stands for a file
    holding that model's series, ``{cache}`` for an empty cache."""
    ci = [f"generate --model {m} --n 600 --seed 1" for m in _MODELS]
    ci += [f"ci --stat {kind}:{x} --method sn {{{m}}}"
           for m in _MODELS for kind in ("specmean", "specratio") for x in _CUTOFFS]
    files = {"ci_spectral.json": ci}
    for table in _STUDIES:
        files[f"simulate_{table}.json"] = [f"simulate --table {table} --reps 8 --seed 1"]
    files["critvals_toy.json"] = [
        "critvals --q 1 --alpha 0.2 --grid 150 --reps 1000 --cache {cache}"]
    return files


def _main(args: list[str]) -> str:
    from selfnorm.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"selfnorm {' '.join(args)} exited {code}: {err.getvalue()}")
    return out.getvalue()


def run(name: str, work: Path) -> list[list]:
    """[request, stdout] of each request of one file, with paths replaced by
    their placeholders."""
    places = {"{cache}": str(work / name / "critvals.json")}
    for model in _MODELS:
        places["{%s}" % model] = str(work / f"{model}.txt")
        if not Path(places["{%s}" % model]).exists():
            text = _main(["generate", "--model", model, "--n", "600", "--seed", "1"])
            Path(places["{%s}" % model]).write_text(text)
    out = []
    for request in requests()[name]:
        stdout = _main([places.get(a, a) for a in request.split()])
        for token, path in places.items():
            stdout = stdout.replace(path, token)
        out.append([request, stdout])
    return out


def _rel(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y:
        return 0.0
    return abs(x - y) / max(abs(x), abs(y))


def compare(old: list, new: list) -> tuple[float, list[str]]:
    """Largest relative change of a number, and the text differences."""
    worst, problems = 0.0, []
    if [a for a, _ in old] != [a for a, _ in new]:
        return worst, ["the request list changed"]
    for (where, before), (_, after) in zip(old, new):
        a, b = _NUMBER.split(before), _NUMBER.split(after)
        if len(a) != len(b):
            problems.append(f"{where}: output has another shape")
            continue
        for i, (s, t) in enumerate(zip(a, b)):
            if i % 2 == 0 or _INTEGER.fullmatch(s) or _INTEGER.fullmatch(t):
                if s != t:
                    problems.append(f"{where}: {s!r} became {t!r}")
            else:
                worst = max(worst, _rel(s, t))
    return worst, problems


def check(name: str, work: Path) -> tuple[float, list[str]]:
    old = json.loads((RECORD / name).read_text(encoding="utf-8"))
    return compare(old, run(name, work))


def main(argv: list[str]) -> int:
    update = argv == ["--update"]
    if argv and not update:
        print(__doc__, file=sys.stderr)
        return 1
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in requests():
            new = run(name, Path(tmp))
            path = RECORD / name
            old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
            worst, problems = (0.0, ["new file"]) if old is None else compare(old, new)
            print(f"{name}: largest relative change {worst:.3g}")
            for line in problems:
                print(f"  {line}")
            if update:
                RECORD.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
            else:
                failed |= worst > RTOL or bool(problems)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
