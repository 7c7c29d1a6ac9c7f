"""Child process of the benchmark: one set-up, or one run of cli.main with spans.

    probe.py setup import
    probe.py setup load PATH
    probe.py setup synthetic SPEC SEED
        Interpreter start, `import cascadefin.cli` and the command's input
        build; the parent times the whole process.
    probe.py trace full|lattice SPANS_PATH RUN_ID -- CLI_ARGS...
        cli.main with every WRAP_TARGETS call site traced (full) or with only
        the lattice call timed (lattice, which leaves the run untraced for
        every other purpose). The spans are written to SPANS_PATH when the
        run ends; the exit code is main's.
"""

import contextlib
import os
import sys


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    from cascadefin import cli
    if mode == "setup":
        if rest[0] == "load":
            cli.load_completed_network(rest[1])
        elif rest[0] == "synthetic":
            cli.generate_synthetic(cli._parse_synthetic(rest[1]), int(rest[2]))
        return 0
    if mode == "trace":
        import tracer as tr
        scope, spans_path, run_id = rest[:3]
        cli_args = rest[rest.index("--") + 1:]
        tracer = tr.Tracer(run_id)
        tr.install(tracer, lattice_only=scope == "lattice")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = tracer.timed("cli.main", cli.main)(cli_args)
        tracer.restore()
        tracer.dump(spans_path)
        return code
    raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
