"""Driving the command-line interface programmatically.

Writes a point-set document, computes its basis through the CLI, then
feeds the emitted basis back into the verify command: the tool's own
output re-certifies byte-for-byte.  Finally compare-orders counts the
axes of the deglex and the degrevlex staircase; both totals equal the
number of points.  A nonzero exit code of verify or compare-orders ends
the demo with that code.
"""

import json
import tempfile
from pathlib import Path

from pointideals.cli import main

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    points = tmp / "points.json"
    points.write_text(
        json.dumps(
            {
                "space": "projective",
                "dim": 2,
                "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]],
            }
        )
    )

    print("$ pointideals gb points.json --output text")
    main(["gb", str(points), "--output", "text"])

    print("\n$ pointideals axes points.json --output text")
    main(["axes", str(points), "--output", "text"])

    basis = tmp / "basis.json"
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["gb", str(points)])
    basis.write_text(buf.getvalue())

    print("\n$ pointideals verify points.json basis.json --output text")
    code = main(["verify", str(points), str(basis), "--output", "text"])
    print("exit code:", code)
    if code != 0:
        raise SystemExit(code)

    print("\n$ pointideals compare-orders points.json --output text")
    code = main(["compare-orders", str(points), "--output", "text"])
    print("exit code:", code)
    if code != 0:
        raise SystemExit(code)
