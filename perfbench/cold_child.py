"""Run one ``qbh`` CLI command under tracing and save its spans.

    python3 perfbench/cold_child.py SPANS.pkl construct -c C -d D -o OUT

The pickle holds the spans and the field microbenchmark.  SPANS.pkl.post
holds ``post_s``, the time from the return of ``cli.main`` until the
pickle is written (microbenchmark plus dump).  That work is tracing,
not the command, so the parent removes it from both the process wall
time and the traced pass time.  Interpreter teardown after it stays in
the wall time, as it does for an untraced ``qbh`` process.
"""

import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    spans.install(rec)
    from qbh import cli

    code = cli.main(argv)
    t0 = time.perf_counter()
    data = {"spans": rec.spans, "fields": spans.microbench(rec.fields)}
    with open(out, "wb") as fh:
        pickle.dump(data, fh, protocol=pickle.HIGHEST_PROTOCOL)
    Path(out + ".post").write_text(repr(time.perf_counter() - t0))
    return code


if __name__ == "__main__":
    sys.exit(main())
