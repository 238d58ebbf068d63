"""Deterministic generator for the `sN` sensor family.

`sN` scales the two-sensor measurement example to N sensors. One region
`main` moves `Standby -> Active on turnOn`; `Active` holds N orthogonal
regions `r_i`, each with

- `W_i -> M_i on measure` and `M_i -> W_i on done_i`;
- on `M_i`, an entry and an exit activity that each send to env;
- `do a_i`, where `a_i` is
  `task t_i; send m_i to env; accept ok_i; send v_i to env; send done_i to self;`.

The scenario is `inject turnOn; await-stable; inject measure; await-stable;`
followed by `inject ok_0; ... inject ok_{N-1};` and the given expectations.
Stdlib only; the same N always yields the same text.

    python3 benchmarks/gen.py 3 > s3.psm
    python3 benchmarks/gen.py 3 --scenario > s3.scn
"""

from __future__ import annotations

import argparse
import sys


def machine_text(n: int) -> str:
    if n < 1:
        raise ValueError("sN needs at least one sensor")
    signals = ["turnOn", "measure"]
    for i in range(n):
        signals += [f"m_{i}", f"ok_{i}", f"v_{i}", f"done_{i}", f"en_{i}", f"ex_{i}"]
    out = [f"machine S{n} {{", f"  signals {', '.join(signals)};", ""]
    for i in range(n):
        out.append(
            f"  activity a_{i} {{ task t_{i}; send m_{i} to env; accept ok_{i}; "
            f"send v_{i} to env; send done_{i} to self; }}"
        )
        out.append(f"  activity enter_{i} {{ send en_{i} to env; }}")
        out.append(f"  activity leave_{i} {{ send ex_{i} to env; }}")
    out += ["", "  region main {", "    initial -> Standby;", "    state Standby { }", "    state Active {"]
    for i in range(n):
        out += [
            f"      region r_{i} {{",
            f"        initial -> W_{i};",
            f"        state W_{i} {{ }}",
            f"        state M_{i} {{ entry enter_{i}; exit leave_{i}; do a_{i}; }}",
            f"        transition Go_{i}: W_{i} -> M_{i} on measure;",
            f"        transition Back_{i}: M_{i} -> W_{i} on done_{i};",
            "      }",
        ]
    out += ["    }", "    transition T1: Standby -> Active on turnOn;", "  }", "}"]
    return "\n".join(out) + "\n"


def scenario_text(n: int, expectations: tuple[str, ...] = ()) -> str:
    out = [f"scenario sensors{n} {{", "  inject turnOn;", "  await-stable;", "  inject measure;", "  await-stable;"]
    out += [f"  inject ok_{i};" for i in range(n)]
    out += [f"  expect {e};" for e in expectations]
    out.append("}")
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="number of sensors")
    ap.add_argument("--scenario", action="store_true", help="print the scenario instead of the machine")
    args = ap.parse_args(argv)
    sys.stdout.write(scenario_text(args.n) if args.scenario else machine_text(args.n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
