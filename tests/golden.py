"""Golden outputs: the stdout of a fixed set of CLI requests, run in-process
through ``selfnorm.cli.main`` and recorded in ``tests/data/golden/``.

A check compares a fresh run with the record token by token.  Text and
integer tokens must be equal; every other number must agree within 1e-12
relative, so the record does not depend on the machine's BLAS kernels.

    python tests/golden.py                    check the record; exit 1 on a difference
    python tests/golden.py --update           rewrite the record and print, per file,
                                              the largest relative change of a number
    python tests/golden.py --update NAME ...  rewrite only the named files, such as
                                              ci_sn.json; an unknown name exits 1
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
_MODELS = ("m1", "m2", "m7")
_STUDIES = ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b",
            "fig1", "fig2", "fig3", "fig4")
_SCALARS = ("mean", "median", "acov:1", "acf:1", "specmean:pi/2", "specratio:pi/2")
_MBB = "--block 5 --reps 200 --seed 1"
# one model of each noise family, of each M-model innovation, and an ar1
_FAMILIES = ("iidn", "t6", "lognorm", "onedep", "hetero", "nonmds", "garch", "bilinear",
             "m1", "m5", "m9", "ar1:0.5:garch")
# a number: its sign, digits, fraction and exponent in one token
_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")
_INTEGER = re.compile(r"-?\d+")


def requests() -> dict[str, list[str]]:
    """File name -> the requests recorded in it.  ``{m1}`` stands for the
    stored series ``series_m1.txt`` (the output of ``generate --model m1 --n
    600 --seed 1`` when the record was made), ``{cache}`` for an empty cache
    and ``{shipped}`` for the critical-value tables shipped with the package.
    The requests read stored series, not fresh ones, so that a change in the
    last bits of the generator, checked by ``generate.json`` and the
    ``generate`` lines of ``ci_spectral.json``, does not reach statistics
    that amplify it."""
    ci = [f"generate --model {m} --n 600 --seed 1" for m in ("m1", "m2")]
    ci += [f"ci --stat {kind}:{x} --method sn {{{m}}}"
           for m in ("m1", "m2") for kind in ("specmean", "specratio") for x in _CUTOFFS]
    files = {"ci_spectral.json": ci}
    files["ci_sn.json"] = [f"ci --stat {s} --method sn {{{m}}}"
                           for m in _MODELS for s in _SCALARS + ("acov:3", "acf:2")]
    files["ci_sn.json"] += ["ci --stat ladar:1 --method sn {m1}", "ci --stat ladar:1 --method sn {m2}",
                            "ci --stat ladar:2 --method sn {m7}"]
    files["ci_mbb.json"] = [f"ci --stat {s} --method {method} {_MBB} {{m1}}"
                            for s in _SCALARS for method in ("mbb-pct", "mbb-normal", "mbb-sn")]
    # 1000 resamples at n = 600 run in several row blocks of the bootstrap engine
    files["ci_mbb_blocks.json"] = [f"ci --stat {s} --method mbb-sn --block 10 --reps 1000 --seed 1 {{m1}}"
                                   for s in ("acf:1", "median", "specratio:pi/2")]
    files["ci_mbb_ladar.json"] = [
        "ci --stat ladar:1 --method mbb-sn --block 5 --reps 20 --seed 1 {m1}",
        "ci --stat ladar:2 --method mbb-sn --block 5 --reps 20 --seed 1 {m7}"]
    files["test_noncorr.json"] = [f"test-noncorr --k {k} --method {method} {{{m}}}"
                                  for m in _MODELS for k in (1, 2, 5)
                                  for method in ("sn", "lobato", "nw")]
    for table in _STUDIES:
        files[f"simulate_{table}.json"] = [f"simulate --table {table} --reps 8 --seed 1"]
    files["critvals_toy.json"] = [
        "critvals --q 1 --alpha 0.2 --grid 150 --reps 1000 --cache {cache}"]
    files["critvals_shipped.json"] = [f"critvals --q {q} --cache {{cache}}" for q in range(1, 7)]
    files["generate.json"] = [f"generate --model {m} --n 40 --seed 1" for m in _FAMILIES]
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
    from selfnorm.critvals import _shipped_tables

    places = {"{cache}": str(work / name / "critvals.json"), "{shipped}": _shipped_tables()[0]}
    places.update({"{%s}" % model: str(RECORD / f"series_{model}.txt") for model in _MODELS})
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
    update = argv[:1] == ["--update"]
    if argv and not update:
        print(__doc__, file=sys.stderr)
        return 1
    names = argv[1:] or list(requests())
    unknown = [name for name in names if name not in requests()]
    if unknown:
        print(f"unknown golden file: {', '.join(unknown)}", file=sys.stderr)
        return 1
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
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
