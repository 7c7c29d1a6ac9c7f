"""One-line mutants of the cascade engine, the analyses' comparisons, the
lattice's worker count and fork driver, the command line's range, manifest,
--out, --synthetic and network-and-label rules, the number reader at every
door, the CSV header's columns, the parse's row checks, blank cells, refused
cells, duplicate ids, table size and one block at a time, the records csv
refuses, the second read that finds a bad file's row lines, the CSV writer's
encoding, blocks and quoting, the writers' whole-file rename and the targets
it must not replace, the rules that no input comes from the environment and
that prices change only in _scale_prices, the network's id column and sum
tolerance, ingest's in-place completion, its repair masks, the rows it
refuses and its row sums, synthetic generation's in-place weights and
holdings and its id column, the label file's header and duplicate count, the
manifest digest's built-in module, the entry's OpenSSL block and the
package's start-up rules, each with the tests that kill it or the reason no
result can change.

    python tests/mutants.py [--workdir DIR] [--only NAME ...] [--all-tests | --each]

Each live mutant replaces one line of a copy of the repository made under
--workdir (a temporary directory, removed afterwards, by default) and runs its
killing tests there with `pytest -x`; it counts as killed when pytest exits 1
(a test failed), survived when it exits 0, and any other exit (a kill id that
names no test, an import error) prints UNEXPECTED. With --each every kill id
runs alone against its mutant, so an id that passes prints UNEXPECTED even
where another id kills the mutant. With --all-tests every mutant, equivalent
ones included, runs the whole `tests/` directory instead. Each line gives the
run's seconds, marked SLOW past SLOW_S (a report, never a failure), and the
last line the total. Pytest does not collect this file (its name does not
start with `test_`); it is run by hand. The killing tests take about 4
minutes for the whole list on two cores, each mutant a few seconds, as every
mutant's first kill id fails at once; --each about 8, most of it in the runs
of a hypothesis property alone, as it searches and shrinks each failure;
--all-tests about a minute per mutant; tests/test_mutants.py checks, without
running any mutant, that every listed line and kill id exists.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASCADE = "src/cascadefin/cascade.py"
NETWORK = "src/cascadefin/network.py"
EVALUATION = "src/cascadefin/evaluation.py"
CLI = "src/cascadefin/cli.py"
INGESTION = "src/cascadefin/ingestion.py"
STARTUP = "tests/test_startup.py::test_import_loads_no_pool_and_pins_one_blas_thread"
LAZY_IMPORTS = "tests/test_startup.py::test_import_loads_neither_openssl_nor_numpy_random"
RANDOM_ON_DEMAND = "tests/test_startup.py::test_numpy_random_loads_only_for_barrier_noise"
BARRIER_PROPERTY = "tests/test_properties.py::test_screening_changes_nothing_at_the_barrier"
ROC_ORACLE = "tests/test_properties.py::test_roc_grid_matches_bank_by_bank_count"
ROC_TIES = "tests/test_evaluation.py::test_roc_votes_break_ties_as_documented"
CONFIG_CHECKS = "tests/test_ingestion.py::test_synthetic_config_validation"
BAD_INPUT = "tests/test_cli.py::test_bad_input_exits_2_before_loading"
LABEL_DOMAIN = "tests/test_cli.py::test_label_cascade_out_of_domain_exits_2"
SPEC_ERRORS = "tests/test_cli.py::test_synthetic_spec_errors"
BAD_FILE = "tests/test_cli.py::test_bad_file_exits_2"
DOORS = "tests/test_cli.py::test_every_door_reads_numbers_as_a_csv_cell_does"
READER_GUARD = "tests/test_cli.py::test_every_numeric_flag_and_spec_key_is_read_by_the_reader"
BAD_CELLS = "tests/test_ingestion.py::test_load_raw_csv_rejects_bad_cells"
POOL_CELLS = "tests/test_evaluation.py::test_pool_is_never_larger_than_the_lattice"
WORKER_TEXT = "tests/test_evaluation.py::test_worker_and_caller_text_reach_stderr_once"
LOST_WORKER = "tests/test_evaluation.py::test_a_worker_lost_without_a_result_raises"
DUPLICATE = "tests/test_ingestion.py::test_load_raw_csv_rejects_duplicate_bank_id"
DUPLICATE_ORDER = "tests/test_ingestion.py::test_load_raw_csv_orders_a_duplicate_among_row_errors"
ENTRY_MAPS = "tests/test_startup.py::test_the_entry_maps_no_openssl"
ENTRY_FALLBACK = "tests/test_startup.py::test_the_entry_keeps_openssl_without_every_built_in_hash"
LAYOUTS = "tests/test_ingestion.py::test_load_raw_csv_reads_every_line_layout"
DIGEST = "tests/test_cli.py::test_manifest_digest_is_plain_sha256"
COMPLETION = "tests/test_properties.py::test_completion_matches_row_by_row_reference"
REFUSED_ROW = "tests/test_ingestion.py::test_completion_refuses_a_row_it_cannot_complete"
WRITER = "tests/test_evaluation.py::test_write_csv"
CSV_REFUSED = "tests/test_ingestion.py::test_load_raw_csv_names_the_line_of_a_record_csv_refuses"
LINES = "tests/test_ingestion.py::test_error_messages_name_the_same_lines_at_every_block_size"
AS_FLOAT = "tests/test_ingestion.py::test_load_raw_csv_reads_a_cell_as_float_does"
AROUND_REFUSED = ("tests/test_ingestion.py::"
                  "test_load_raw_csv_finds_the_first_bad_row_around_a_refused_cell")
THROUGH = "tests/test_cli.py::test_run_out_writes_through_what_it_names"
HEADER = "tests/test_ingestion.py::test_load_raw_csv_header_is_checked"
CSV_ORACLE = "tests/test_properties.py::test_csv_reader_matches_record_by_record_reference"
# a run longer than this prints SLOW, which reports and never fails
SLOW_S = 30
FAILING = "failing = undefined.any(axis=1) | (negative & (known_sum <= 0)) | overflow | broken"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str        # must occur exactly once in the file
    new: str
    kills: tuple = ()   # test ids expected to fail; empty for an equivalent mutant
    proof: str = ""     # why an equivalent mutant changes no result


MUTANTS = (
    # evaluate_round
    Mutant("barrier-no-floor", CASCADE,
           "< np.maximum(threshold, BOUND_FLOOR)).nonzero()", "< threshold).nonzero()",
           (BARRIER_PROPERTY,)),
    Mutant("barrier-screen-le", CASCADE,
           "< np.maximum(threshold, BOUND_FLOOR)).nonzero()",
           "<= np.maximum(threshold, BOUND_FLOOR)).nonzero()",
           proof="a bank whose bound equals its threshold is summed as well; summing a row "
                 "gives the total the full pass compares, so fates, draws and prices stay"),
    Mutant("barrier-fail-le", CASCADE,
           "failures = rows[totals < threshold[unsure]]",
           "failures = rows[totals <= threshold[unsure]]",
           (BARRIER_PROPERTY,)),
    Mutant("barrier-no-bound-update", CASCADE,
           "    state.bound[rows] = totals\n", "",
           ("tests/test_cascade.py::test_barrier_pass_skips_banks_their_bound_proves_solvent",)),
    Mutant("barrier-no-eta", CASCADE, "        r *= params.eta\n", "",
           ("tests/test_cascade.py::test_barrier_monte_carlo_matches_closed_form",)),
    Mutant("barrier-threshold-plus", CASCADE,
           "np.subtract(1.0, r, out=r)", "np.add(1.0, r, out=r)",
           ("tests/test_cascade.py::test_barrier_monte_carlo_matches_closed_form",)),
    Mutant("barrier-keeps-failed-alive", CASCADE,
           "    state.alive[failures] = False\n    return failures", "    return failures",
           ("tests/test_cascade.py::test_evaluate_round_eta_zero_needs_no_rng",)),
    # round-0 seeding and contiguity
    Mutant("round0-no-seed", CASCADE,
           "    np.sum(network.holdings, axis=1, out=state.bound)\n", "",
           ("tests/test_cascade.py::test_round_zero_sums_only_banks_below_their_row_total",)),
    Mutant("network-duplicates-unsorted", NETWORK, "ordered = np.sort(ids)", "ordered = ids",
           ("tests/test_network.py::test_network_rejects_duplicate_ids", DUPLICATE)),
    Mutant("repeat-test-loads-numpy-strings", NETWORK,
           "(ordered[1:] == ordered[:-1])", "np.strings.equal(ordered[1:], ordered[:-1])",
           ("tests/test_startup.py::test_ingest_never_loads_numpy_ma",
            f"{RANDOM_ON_DEMAND}[eta-0]")),
    Mutant("network-converts-every-column", NETWORK,
           "        if not (isinstance(self.bank_ids, np.ndarray)\n"
           "                and isinstance(self.bank_ids.dtype, StringDType)):\n",
           "        if True:\n",
           ("tests/test_network.py::test_network_keeps_a_string_column_it_is_handed",
            "tests/test_ingestion.py::test_ingest_layers_peak_in_bounded_memory")),
    Mutant("network-ids-of-any-rank", NETWORK, " or self.bank_ids.ndim != 1", "",
           ("tests/test_network.py::test_network_needs_one_holdings_row_per_bank_id[2-d-ids]",)),
    Mutant("network-sum-tolerance-unscaled", NETWORK,
           "return miss > np.multiply(tol, SUM_RTOL, out=tol)", "return miss > tol",
           ("tests/test_network.py::test_network_validates_holdings_sum",)),
    Mutant("network-sum-tolerance-no-floor", NETWORK,
           "tol = np.maximum(total_assets, 1.0)", "tol = total_assets.copy()",
           ("tests/test_network.py::test_network_sum_tolerance_is_absolute_below_a_total_of_1",)),
    Mutant("network-not-contiguous", NETWORK,
           "np.ascontiguousarray(self.holdings, dtype=np.float64)",
           "np.asarray(self.holdings, dtype=np.float64)",
           ("tests/test_cascade.py::test_fortran_ordered_holdings_run_bit_for_bit",
            "tests/test_properties.py::test_contiguous_row_sums_match_gathered_rows")),
    Mutant("loop-alive-count-kept", CASCADE, "        n_alive -= failures.size\n", "",
           ("tests/test_cascade.py::test_toy_cascade_frozen_trace",)),
    # apply_fire_sales
    Mutant("sale-no-alpha", CASCADE, "params.alpha * sold.sum(axis=0)", "sold.sum(axis=0)",
           ("tests/test_cascade.py::test_fire_sale_worked_example",)),
    Mutant("sale-fast-path-ge", CASCADE, "if a.min() > 0.0:", "if a.min() >= 0.0:",
           ("tests/test_cascade.py::test_fire_sale_on_zero_value_asset_raises",
            "tests/test_cascade.py::test_fire_sale_leaves_a_worthless_asset_nobody_sells")),
    Mutant("sale-no-dead-asset-check", CASCADE,
           'raise ValueError("fire sale on a zero-value asset")', "pass",
           ("tests/test_cascade.py::test_fire_sale_on_zero_value_asset_raises",)),
    Mutant("sale-divide-where-ge", CASCADE, "where=a > 0.0)", "where=a >= 0.0)",
           ("tests/test_cascade.py::test_fire_sale_leaves_a_worthless_asset_nobody_sells",)),
    Mutant("sale-clamp-test-le", CASCADE, "    if low < 0.0:", "    if low <= 0.0:",
           proof="at low == 0 no factor is negative: the clamp list is empty, the maximum "
                 "leaves every factor as it is (none is -0.0: a - d is never -0.0 when "
                 "a > 0, and a factor is 1 where a <= 0) and low stays 0.0"),
    Mutant("sale-low-not-floored", CASCADE, "max(low, 0.0)", "low",
           proof="a negative factor needs a > 0 and a deduction > 0, so a positive price; "
                 "the clamp takes it to 0, below BOUND_FLOOR, and _scale_prices zeroes "
                 "every bound without reading low"),
    Mutant("sale-no-clamp", CASCADE, "        np.maximum(factor, 0.0, out=factor)\n", "",
           ("tests/test_cascade.py::test_fire_sale_clamps_oversold_asset",)),
    Mutant("sale-market-not-clamped", CASCADE,
           "np.maximum(remaining, 0.0, out=a)", "a[:] = remaining",
           ("tests/test_cascade.py::test_fire_sale_clamps_oversold_asset",)),
    # _scale_prices
    Mutant("scale-fast-test-le", CASCADE,
           "if prices.min() < BOUND_FLOOR and", "if prices.min() <= BOUND_FLOOR and",
           proof="when the smallest price equals BOUND_FLOOR no price lies below it, so "
                 "the full test that follows finds nothing either"),
    Mutant("scale-no-margin", CASCADE,
           "state.bound *= low * (1.0 - max(1e-12, 4.0 * factor.size * EPS))",
           "state.bound *= low",
           ("tests/test_cascade.py::test_barrier_pass_skips_banks_their_bound_proves_solvent",)),
    Mutant("scale-no-floor-reset", CASCADE,
           "if prices.min() < BOUND_FLOOR and ((prices < BOUND_FLOOR) & "
           "(state.price_index > 0.0)).any():", "if False:", (BARRIER_PROPERTY,)),
    # evaluation: roc votes
    Mutant("roc-vote-tie-fails", EVALUATION,
           "failed_votes * 2 > replicates", "failed_votes * 2 >= replicates",
           (ROC_TIES, ROC_ORACLE)),
    Mutant("roc-first-step-tie-lost", EVALUATION,
           "first_votes * 2 >= failed_votes", "first_votes * 2 > failed_votes",
           (ROC_TIES, ROC_ORACLE)),
    Mutant("roc-preshock-votes-failed", EVALUATION,
           "failed_votes += fate >= 1", "failed_votes += fate >= 0",
           ("tests/test_evaluation.py::test_roc_counts_preshock_failures_in_no_split",)),
    Mutant("roc-every-round-first", EVALUATION,
           "first_votes += fate == 1", "first_votes += fate >= 1",
           ("tests/test_evaluation.py::test_roc_splits_partition_full",)),
    Mutant("roc-preshock-votes-first", EVALUATION,
           "first_votes += fate == 1", "first_votes += fate <= 1", (ROC_TIES, ROC_ORACLE)),
    # evaluation: survival and phase regions
    Mutant("survival-no-agree-shortcut", EVALUATION,
           "if of_all.min() == of_all.max():", "if False:",
           ("tests/test_evaluation.py::test_eta_zero_phase_cell_is_exact",)),
    Mutant("survival-ci-needs-3", EVALUATION,
           "    if replicates >= 2:", "    if replicates > 2:",
           ("tests/test_cli.py::test_output_bytes_are_pinned[phase-1d-eta-0]",)),
    Mutant("survival-ci-at-1", EVALUATION,
           "    if replicates >= 2:", "    if replicates >= 1:",
           ("tests/test_evaluation.py::test_phase_scan_one_dimensional",
            "tests/test_cli.py::test_phase_one_axis_output")),
    Mutant("phase-region-at-threshold", EVALUATION,
           "np.where(mean < threshold,", "np.where(mean <= threshold,",
           ("tests/test_evaluation.py::test_phase_scan_one_dimensional",)),
    # evaluation: lattice order of the output columns
    Mutant("phase-columns-xy", EVALUATION, 'indexing="ij"', 'indexing="xy"',
           ("tests/test_cli.py::test_output_bytes_are_pinned[phase-2d]",)),
    Mutant("roc-cell-columns-tiled", EVALUATION,
           "np.repeat(col, len(splits))", "np.tile(col, len(splits))",
           ("tests/test_cli.py::test_output_bytes_are_pinned[roc]",)),
    # evaluation: lattice dispatch
    Mutant("lattice-one-worker-pooled", EVALUATION, "if workers <= 1 or", "if workers < 1 or",
           (POOL_CELLS,)),
    Mutant("lattice-forks-without-fork", EVALUATION, ' or not hasattr(os, "fork"):', ":",
           ("tests/test_evaluation.py::test_lattice_runs_in_process_without_fork",)),
    Mutant("lattice-pool-past-cells", EVALUATION,
           "min(jobs or 1, n_cells, _cores())", "min(jobs or 1, _cores())", (POOL_CELLS,)),
    Mutant("lattice-pool-past-cores", EVALUATION,
           "min(jobs or 1, n_cells, _cores())", "min(jobs or 1, n_cells)",
           ("tests/test_evaluation.py::test_pool_is_never_larger_than_the_host",
            "tests/test_cli.py::test_jobs_clamped_to_core_count")),
    Mutant("lattice-pool-past-affinity", EVALUATION,
           "return len(os.sched_getaffinity(0))", "return os.cpu_count() or 1",
           ("tests/test_evaluation.py::test_pool_fits_the_cpus_the_process_may_run_on",)),
    # evaluation: the fork driver
    Mutant("lattice-partition-uninterleaved", EVALUATION,
           "range(w, n_cells, workers)", "range(w, n_cells, 1)",
           ("tests/test_evaluation.py::test_forked_workers_interleave_the_cells",)),
    Mutant("lattice-workers-left-running", EVALUATION,
           "for pid, pipe, _ in pending:", "for pid, pipe, _ in ():", (LOST_WORKER,)),
    Mutant("lattice-failed-fork-leaks-pipe", EVALUATION,
           "for fd in (read_fd, write_fd):", "for fd in ():",
           ("tests/test_evaluation.py::test_a_failed_fork_leaks_no_pipe",)),
    Mutant("lattice-empty-pipe-unpickled", EVALUATION, "if code or not data:", "if code:",
           (f"{LOST_WORKER}[0]",)),
    Mutant("lattice-first-worker-failure", EVALUATION,
           "raise min(failures, key=lambda failure: failure[0])[1]", "raise failures[0][1]",
           ("tests/test_evaluation.py::test_forked_worker_exception_is_the_serial_one"
            "[two-workers-raise]",)),
    Mutant("lattice-caller-unflushed", EVALUATION,
           "_flush_std_streams()  # else a worker inherits", "pass  # else a worker inherits",
           (WORKER_TEXT,)),
    Mutant("lattice-worker-unflushed", EVALUATION,
           "_flush_std_streams()   # os._exit flushes", "pass   # os._exit flushes",
           (WORKER_TEXT,)),
    # cli: ranges
    Mutant("range-half-step-past-hi", CLI,
           "last = (hi - lo + 5e-13) / step", "last = (hi - lo) / step + 0.5",
           ("tests/test_cli.py::test_range_holds_lo_plus_k_steps_up_to_hi",)),
    Mutant("range-no-rounding-allowance", CLI,
           "last = (hi - lo + 5e-13) / step", "last = (hi - lo) / step",
           ("tests/test_cli.py::test_range_holds_lo_plus_k_steps_up_to_hi",)),
    Mutant("range-not-counted", CLI, "if last >= MAX_CELLS:", "if False:",
           ("tests/test_cli.py::test_range_counted_before_allocating",)),
    Mutant("range-repeats-kept", CLI,
           "if (np.diff(values) <= 0).any():", "if (np.diff(values) < 0).any():",
           ("tests/test_cli.py::test_bad_input_exits_2_before_loading[range-repeats-values]",)),
    # cli: the manifest leaves out the flags that never change bytes
    Mutant("manifest-records-out", CLI,
           'not in ("command", "func", "out", "jobs")', 'not in ("command", "func", "jobs")',
           ("tests/test_cli.py::test_sweep_bytes_stable_across_runs_and_jobs",)),
    Mutant("manifest-records-jobs", CLI,
           'not in ("command", "func", "out", "jobs")', 'not in ("command", "func", "out")',
           ("tests/test_cli.py::test_sweep_bytes_stable_across_runs_and_jobs",)),
    # cli: --out is refused before any input loads
    Mutant("out-run-directory-kept", CLI,
           'raise UsageError(f"--out {args.out!r} is a directory; run writes one file")', "pass",
           (f"{BAD_INPUT}[run-out-dir]",)),
    Mutant("out-run-file-as-directory", CLI,
           "        path = os.path.dirname(path)\n    else:", "        pass\n    else:",
           (f"{BAD_INPUT}[run-out-in-missing-dir]",
            "tests/test_cli.py::test_run_out_file_matches_stdout")),
    Mutant("out-not-a-directory-kept", CLI, "    if not os.path.isdir(path):", "    if False:",
           (f"{BAD_INPUT}[sweep-out-file]", f"{BAD_INPUT}[ingest-out-file]")),
    # cli: the --synthetic spec's syntax
    Mutant("spec-no-equals-check", CLI,
           'if "=" not in item:', "if False:", (f"{BAD_INPUT}[synthetic-key-without-value]",)),
    Mutant("spec-unknown-key-kept", CLI, "if key not in types:", "if False:", (SPEC_ERRORS,)),
    Mutant("spec-repeated-key-kept", CLI, "if key in kwargs:", "if False:",
           (f"{BAD_INPUT}[synthetic-key-twice]", f"{BAD_INPUT}[synthetic-label-key-twice]")),
    Mutant("spec-every-value-float", CLI,
           "kwargs[key] = number(value, types[key])", "kwargs[key] = number(value, float)",
           ("tests/test_cli.py::test_synthetic_spec_round_trips_every_field",)),
    Mutant("spec-bad-value-uncaught", CLI,
           "        except ValueError:\n            raise UsageError(f\"--synthetic: bad value",
           "        except TypeError:\n            raise UsageError(f\"--synthetic: bad value",
           (f"{BAD_INPUT}[synthetic-bad-value]",)),
    Mutant("spec-n-optional", CLI, 'if "n" not in kwargs:', "if False:", (SPEC_ERRORS,)),
    Mutant("spec-config-error-uncaught", CLI,
           "        return SyntheticConfig(**kwargs)\n    except ValueError as e:",
           "        return SyntheticConfig(**kwargs)\n    except TypeError as e:",
           (f"{BAD_INPUT}[concentration-0]",)),
    # _resolve's refusals
    Mutant("resolve-seed-optional", CLI, "if any(e > 0 for e in etas):", "if False:",
           ("tests/test_cli.py::test_eta_without_seed_is_refused",)),
    Mutant("resolve-sources-unchecked", CLI, "if bool(args.input) == bool(args.synthetic):",
           "if False:", ("tests/test_cli.py::test_run_needs_exactly_one_source",)),
    Mutant("resolve-phase-label-keys", CLI,
           'if synthetic.label_asset is not None and "labels" not in args:', "if False:",
           (f"{BAD_INPUT}[phase-label-cascade]",)),
    Mutant("resolve-two-label-sources", CLI,
           "if synthetic.label_asset is not None and args.labels:", "if False:",
           (f"{BAD_INPUT}[two-label-sources]",)),
    Mutant("resolve-roc-one-class", CLI,
           'if args.command == "roc" and n_pos in (0, network.n_banks):', "if False:",
           ("tests/test_cli.py::test_roc_without_a_labeled_bank_exits_2",
            "tests/test_cli.py::test_roc_label_file_without_both_classes_exits_2")),
    Mutant("resolve-roc-no-positive", CLI, "n_pos in (0, network.n_banks)",
           "n_pos == network.n_banks",
           ("tests/test_cli.py::test_roc_label_file_without_both_classes_exits_2[disjoint]",)),
    Mutant("resolve-labels-name-no-bank", CLI, "if n_pos == 0:", "if False:",
           ("tests/test_cli.py::test_labels_naming_no_bank_exit_2",)),
    # the number reader, bypassed at each door of the command line
    Mutant("reader-p-scalar", CLI, "values = [number(text, float)]", "values = [float(text)]",
           (f"{DOORS}[p]",)),
    Mutant("reader-range-bound", CLI, "(number(v, float) for v in parts)",
           "(float(v) for v in parts)", (f"{DOORS}[range-bound]",)),
    Mutant("reader-shock-asset", CLI, "number(m, int)", "int(m)", (f"{DOORS}[shock-asset]",)),
    Mutant("reader-shock-p", CLI, "number(p_m, float)", "float(p_m)", (f"{DOORS}[shock-p]",)),
    Mutant("reader-spec-value", CLI, "number(value, types[key])", "types[key](value)",
           (f"{DOORS}[synthetic-int]", f"{DOORS}[synthetic-float]")),
    Mutant("reader-flag-type", CLI, "value = number(text, kind)", "value = kind(text)",
           (READER_GUARD, f"{DOORS}[seed]")),
    Mutant("reader-asset-flag", CLI, "type=_flag(int), default=0", "type=int, default=0",
           (f"{DOORS}[asset]", READER_GUARD)),
    Mutant("reader-seed-flag", CLI, "type=_flag(int, 0), default=None", "type=int, default=None",
           (f"{DOORS}[seed]", f"{BAD_INPUT}[seed-negative]")),
    Mutant("reader-roc-replicates-flag", CLI, '"--replicates", type=_flag(int, 1), default=1,',
           '"--replicates", type=int, default=1,',
           (READER_GUARD, f"{BAD_INPUT}[roc-replicates-0]")),
    Mutant("reader-phase-replicates-flag", CLI,
           '"--replicates", type=_flag(int, 1), default=DEFAULT_REPLICATES',
           '"--replicates", type=int, default=DEFAULT_REPLICATES',
           (f"{DOORS}[replicates]", f"{BAD_INPUT}[phase-replicates-0]")),
    Mutant("reader-threshold-flag", CLI, "type=_flag(float, 0, 1)", "type=float",
           (f"{DOORS}[threshold]", f"{BAD_INPUT}[phase-threshold-7]")),
    Mutant("reader-jobs-flag", CLI, '"--jobs", type=_flag(int, 1)', '"--jobs", type=int',
           (f"{DOORS}[jobs]", f"{BAD_INPUT}[jobs-non-numeric]")),
    Mutant("flag-range-lets-nan", CLI, "if not lo <= value <= hi:",
           "if value < lo or value > hi:", (f"{BAD_INPUT}[phase-threshold-nan]",)),
    # ingestion: the CSV parse's row checks and its number reader
    Mutant("reader-csv-cell", INGESTION, "value = number(text, float)", "value = float(text)",
           (f"{DOORS}[csv-cell]", f"{BAD_FILE}[ingest-underscore]", CSV_ORACLE)),
    Mutant("reader-joined-row", INGESTION,
           'if not _plain("".join((rec[1], rec[2], *cells))):', "if False:",
           (f"{DOORS}[csv-cell]", f"{BAD_FILE}[ingest-underscore]", CSV_ORACLE)),
    Mutant("parse-blank-read-as-zero", INGESTION, '[c or "nan" for c in cells]',
           '[c or "0" for c in cells]',
           (f"{AS_FLOAT}[128]", "tests/test_ingestion.py::test_load_raw_csv_blank_means_missing",
            CSV_ORACLE)),
    Mutant("parse-keeps-the-refused-row", INGESTION,
           "    except ValueError:\n        return None\n    # NaN",
           "    except ValueError:\n        array = np.zeros(len(texts))\n    # NaN",
           (f"{AROUND_REFUSED}[refused-cell-128]", f"{AROUND_REFUSED}[refused-cell-3]",
            CSV_ORACLE)),
    # the header: each column named in order, with at least one asset
    Mutant("header-assets-unchecked", INGESTION,
           "enumerate(expected_columns(max(n_assets, 0))):",
           "enumerate(expected_columns(max(n_assets, 0))[:3]):",
           (f"{HEADER}[asset-order]", CSV_ORACLE)),
    Mutant("header-without-assets", INGESTION, "if n_assets < 1:", "if n_assets < 0:",
           (f"{HEADER}[no-assets]", CSV_ORACLE)),
    Mutant("header-missing-unnamed", INGESTION, 'else "<missing>"', 'else ""',
           (f"{HEADER}[missing]", CSV_ORACLE)),
    Mutant("reader-underscore-plain", INGESTION, 'return text.isascii() and "_" not in text',
           "return text.isascii()", (f"{BAD_FILE}[ingest-underscore]", CSV_ORACLE)),
    Mutant("parse-duplicate-kept", INGESTION, "if has_repeat(ids[:n]):", "if False:",
           (DUPLICATE, f"{DUPLICATE_ORDER}[first-repeat-3]", CSV_ORACLE)),
    Mutant("parse-earlier-duplicate-late", INGESTION,
           "raise _file_error(path, header, ids[:n], block)",
           "raise _file_error(path, header, ids[:0], block)",
           (f"{DUPLICATE_ORDER}[before-a-later-bad-row-3]", CSV_ORACLE)),
    Mutant("parse-holds-two-blocks", INGESTION, "                del block, values\n", "",
           ("tests/test_ingestion.py::test_parse_holds_one_block_of_records_at_a_time",)),
    Mutant("parse-table-copied", INGESTION,
           "total_liabilities[:n], holdings[:n])",
           "total_liabilities[:n], np.concatenate([holdings[:n]]))",
           ("tests/test_ingestion.py::test_ingest_layers_peak_in_bounded_memory",)),
    # a bad file's row lines, from a second read that skips the header as the parse does
    Mutant("row-line-reads-the-header", INGESTION, "        next(reader)   # the header\n", "",
           (f"{LINES}[repeat-early-8192]", f"{LINES}[completed-blank-8192]", CSV_ORACLE)),
    Mutant("row-line-one-row-early", INGESTION, "islice(enumerate(_records(reader)),",
           "islice(enumerate(_records(reader), 1),",
           (f"{LINES}[repeat-late-8192]", f"{LINES}[completed-off-total-8192]", CSV_ORACLE)),
    Mutant("save-locale-encoding", INGESTION, 'newline="", encoding="utf-8") as fh:',
           'newline="") as fh:',
           ("tests/test_ingestion.py::test_save_writes_utf_8_whatever_the_locale",)),
    # the one CSV writer: a block of each column at a time, text quoted
    Mutant("writer-whole-column", INGESTION, "col[lo:lo + BLOCK_ROWS].tolist())", "col.tolist())",
           (f"{WRITER}[longer-than-a-block]",
            "tests/test_evaluation.py::test_write_csv_holds_one_block_of_cells_at_a_time")),
    Mutant("writer-text-unquoted", INGESTION, 'else _csv_field,', "else str,",
           (f"{WRITER}[quoted-text]",
            "tests/test_ingestion.py::test_save_quotes_bank_ids_as_csv_writer_does")),
    # an output takes its name only once it is whole
    Mutant("writes-in-place", INGESTION, "        yield part\n", "        yield path\n",
           ("tests/test_cli.py::test_a_write_that_fails_leaves_the_last_run_whole",)),
    # the rename leaves all but the bytes of what --out names as it was
    Mutant("replace-over-the-symlink", INGESTION, "target = os.path.realpath(path)",
           "target = path", (f"{THROUGH}[symlink]",)),
    Mutant("replace-drops-the-mode", INGESTION, "os.chmod(part, stat.S_IMODE(st.st_mode))",
           "pass", (f"{THROUGH}[mode]",)),
    Mutant("replace-over-a-fifo", INGESTION, "stat.S_ISREG(st.st_mode) and st.st_nlink == 1",
           "st.st_nlink == 1", (f"{THROUGH}[fifo]",)),
    Mutant("replace-over-a-hard-link", INGESTION, " and st.st_nlink == 1\n", "\n",
           (f"{THROUGH}[hard-link]",)),
    Mutant("replace-another-users-file", INGESTION,
           "\n                               and st.st_uid == os.geteuid()", "",
           (f"{THROUGH}[other-owner]",)),
    # every input is a flag; prices change only where the bounds follow them
    Mutant("out-from-the-environment", CLI, 'out = args.out or "."',
           'out = args.out or os.environ.get("CASCADEFIN_OUT", ".")',
           ("tests/test_source.py::test_no_input_comes_from_the_environment",)),
    Mutant("shock-prices-unscreened", CASCADE, "_scale_prices(state, factor, factor.min())",
           "state.price_index *= factor",
           ("tests/test_source.py::test_prices_change_only_in_scale_prices",)),
    # a record csv.reader refuses is a schema error on the line it starts
    Mutant("csv-error-uncaught", INGESTION, 'raise SchemaError(f"row {end + 1}: {e}") from None',
           "raise", (f"{CSV_REFUSED}[unclosed-quote-3]",
                     "tests/test_ingestion.py::test_labels_name_the_line_of_a_record_csv_refuses",
                     f"{BAD_FILE}[ingest-unclosed-quote]", f"{BAD_FILE}[labels-oversized-id]")),
    # the parse sizes its columns by the file's CR and LF bytes
    Mutant("max-rows-without-lf", INGESTION, 'chunk.count(b"\\n") + chunk.count(b"\\r")',
           'chunk.count(b"\\r")', (f"{LAYOUTS}[lf]", CSV_ORACLE)),
    Mutant("max-rows-without-cr", INGESTION, 'chunk.count(b"\\n") + chunk.count(b"\\r")',
           'chunk.count(b"\\n")', (f"{LAYOUTS}[cr]", CSV_ORACLE)),
    Mutant("row-duplicate-unchecked", INGESTION,
           "if (j := first.setdefault(bank_id, i)) != i:\n            return",
           "if False:\n            return",
           (f"{DUPLICATE_ORDER}[before-its-cells-3]", CSV_ORACLE)),
    Mutant("duplicate-names-a-later-row", INGESTION,
           "for i, bank_id in enumerate(ids):",
           "for i, bank_id in reversed(list(enumerate(ids))):", (DUPLICATE, CSV_ORACLE)),
    Mutant("records-last-line", INGESTION,
           "start, end = end + 1, reader.line_num", "start = end = reader.line_num",
           ("tests/test_ingestion.py::test_load_raw_csv_numbers_a_row_by_its_first_file_line",
            CSV_ORACLE)),
    Mutant("parse-field-count-unchecked", INGESTION,
           "if len(rec) != len(header) or not bank_id or", "if not bank_id or",
           (BAD_CELLS, CSV_ORACLE)),
    Mutant("parse-negative-kept", INGESTION, " or (array < 0).any()", "", (BAD_CELLS, CSV_ORACLE)),
    Mutant("row-negative-totals-unchecked", INGESTION,
           "if k == 2 and (value < 0 or float(rec[1]) < 0):", "if False:",
           (f"{BAD_FILE}[ingest-negative-liabilities]",
            f"{BAD_FILE}[ingest-negative-total-assets]", CSV_ORACLE)),
    Mutant("row-negative-assets-unchecked", INGESTION, "(value < 0 or float(rec[1]) < 0)",
           "value < 0", (f"{BAD_FILE}[ingest-negative-total-assets]", CSV_ORACLE)),
    # ingestion: SyntheticConfig's checks of the spec
    Mutant("config-seed-alone-unlabelled", INGESTION,
           "labelled = self.label_seed is not None or any(", "labelled = any(",
           (CONFIG_CHECKS, f"{BAD_INPUT}[label-seed-0-alone]")),
    Mutant("config-partial-labels", INGESTION,
           "            if any(v is None for v in labels):", "            if False:",
           (CONFIG_CHECKS, SPEC_ERRORS)),
    Mutant("config-negative-label-seed", INGESTION,
           "if self.label_seed is not None and self.label_seed < 0:", "if False:",
           (CONFIG_CHECKS, LABEL_DOMAIN)),
    Mutant("config-label-domain-late", INGESTION,
           '                raise ValueError(f"label_{e}") from None', "                pass",
           (CONFIG_CHECKS, LABEL_DOMAIN)),
    Mutant("config-label-domain-unnamed", INGESTION,
           'raise ValueError(f"label_{e}") from None', "raise", (CONFIG_CHECKS, LABEL_DOMAIN)),
    Mutant("config-no-assets", INGESTION,
           "if self.n < 1 or self.assets < 1:", "if self.n < 1:", (CONFIG_CHECKS,)),
    Mutant("config-no-banks", INGESTION,
           "if self.n < 1 or self.assets < 1:", "if self.assets < 1:", (CONFIG_CHECKS,)),
    Mutant("config-sparsity-1", INGESTION,
           "if not 0.0 <= self.sparsity < 1.0:", "if not 0.0 <= self.sparsity <= 1.0:",
           (CONFIG_CHECKS,)),
    Mutant("config-leverage-unordered", INGESTION,
           "if not 0.0 <= self.lev_low <= self.lev_high:", "if not 0.0 <= self.lev_low:",
           (CONFIG_CHECKS,)),
    Mutant("config-median-unchecked", INGESTION,
           "if not (self.concentration > 0 and self.median > 0):",
           "if not self.concentration > 0:", (CONFIG_CHECKS,)),
    Mutant("config-sigma-unchecked", INGESTION,
           'raise ValueError("sigma must be non-negative")', "pass", (CONFIG_CHECKS,)),
    Mutant("config-infinite-kept", INGESTION,
           'raise ValueError("concentration, median, sigma and leverage must be finite")',
           "pass", (f"{BAD_INPUT}[sigma-inf]",)),
    Mutant("config-label-asset-at-count", INGESTION,
           "not 0 <= self.label_asset < self.assets:",
           "not 0 <= self.label_asset <= self.assets:", (CONFIG_CHECKS,)),
    Mutant("config-label-asset-negative", INGESTION,
           "not 0 <= self.label_asset < self.assets:", "not self.label_asset < self.assets:",
           (CONFIG_CHECKS,)),
    # start-up: one BLAS thread, and no process-pool module ever
    Mutant("startup-blas-threads", CASCADE,
           'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")', "pass", (STARTUP,)),
    Mutant("startup-pin-after-numpy", CASCADE,
           'if "numpy" not in sys.modules:', "if True:",
           ("tests/test_startup.py::test_a_process_that_loaded_numpy_first_is_left_alone",)),
    Mutant("startup-eager-pool", EVALUATION,
           "import warnings\n",
           "import warnings\nfrom concurrent.futures import ProcessPoolExecutor\n",
           (STARTUP, "tests/test_source.py::test_no_process_pool_import[evaluation.py]",
            "tests/test_startup.py::test_a_forked_lattice_loads_no_pool_module")),
    # start-up: numpy.random only for barrier noise, OpenSSL only with it
    Mutant("startup-eager-hashlib", CLI,
           "import argparse\n", "import argparse\nimport hashlib\n", (LAZY_IMPORTS,)),
    Mutant("cell-eta-0-streams", EVALUATION,
           "run_cascade(network, params, None)",
           "run_cascade(network, params, stream(seed, DOMAIN_CELL, i, 0))",
           (f"{RANDOM_ON_DEMAND}[eta-0]",)),
    Mutant("digest-hashlib-first", CLI, "    digest = sha256()",
           "    from hashlib import sha256\n    digest = sha256()",
           (f"{RANDOM_ON_DEMAND}[eta-0]", DIGEST)),
    Mutant("run-eta-0-streams", CLI,
           "stream(args.seed) if eta > 0 else None", "stream(args.seed)",
           (f"{RANDOM_ON_DEMAND}[eta-0]",)),
    # start-up: the entry blocks OpenSSL where hashlib can do without it, and
    # nothing else writes sys.modules
    Mutant("entry-keeps-openssl", CLI, 'sys.modules.setdefault("_hashlib", None)', "pass",
           (ENTRY_MAPS, f"{RANDOM_ON_DEMAND}[eta-0.2]")),
    Mutant("entry-blocks-without-fallback", CLI,
           "if all(importlib.util.find_spec(name) for name in BUILTIN_HASHES):", "if True:",
           (ENTRY_FALLBACK,)),
    Mutant("entry-fallback-without-sha3", CLI, '"_blake2", "_sha3")', '"_blake2")',
           (f"{ENTRY_FALLBACK}[_sha3]",)),
    Mutant("entry-guard-skips-console", CLI, "    sys.exit(console())", "    sys.exit(main())",
           ("tests/test_source.py::test_the_script_and_python_m_share_one_entry", ENTRY_MAPS)),
    Mutant("entry-blocks-at-import", CLI, "import numpy as np\n",
           'import numpy as np\nsys.modules.setdefault("_hashlib", None)\n',
           ("tests/test_source.py::test_only_the_entry_writes_sys_modules", LAZY_IMPORTS,
            "tests/test_startup.py::test_an_in_process_main_leaves_openssl_importable")),
    Mutant("cascade-no-generator-unchecked", CASCADE,
           "if rng is None and params.eta != 0.0:", "if False:",
           ("tests/test_cascade.py::test_positive_eta_without_a_generator_raises",)),
    # ingest: one table, completed in place, its blanks counted first
    Mutant("complete-into-a-copy", INGESTION,
           "    return network_from_sheets(raw), report",
           "    return network_from_sheets(RawTable(raw.bank_ids, raw.total_assets, "
           "raw.total_liabilities, raw.holdings.copy())), report",
           ("tests/test_ingestion.py::test_completion_fills_the_raw_table_in_place",)),
    Mutant("ingest-blanks-counted-late", CLI,
           "    blanks = sum(int(np.count_nonzero(np.isnan(column))) "
           "for column in raw.holdings.T)\n    network, report = complete_dataset(raw)\n",
           "    network, report = complete_dataset(raw)\n    blanks = sum("
           "int(np.count_nonzero(np.isnan(column))) for column in raw.holdings.T)\n",
           ("tests/test_cli.py::test_ingest_prints_the_blank_cells_of_its_input",)),
    Mutant("row-sums-loop-counts", INGESTION,
           "for k in np.flatnonzero(np.bincount(counts)):", "for k in np.bincount(counts):",
           ("tests/test_ingestion.py::test_row_sums_add_each_rows_present_cells", COMPLETION)),
    # ingest: completion's repair masks and the rows it refuses
    Mutant("complete-off-counts-blank-rows", INGESTION,
           "off = ~has_missing & (np.abs(residual) > tol)", "off = np.abs(residual) > tol",
           ("tests/test_ingestion.py::test_completion_worked_example", COMPLETION)),
    Mutant("complete-zero-row-rescaled", INGESTION,
           "rescaled = off & (known_sum > 0)", "rescaled = off",
           ("tests/test_ingestion.py::test_completion_redistributes_zero_row", COMPLETION)),
    Mutant("complete-zero-row-kept", INGESTION,
           "zero = off & (known_sum <= 0)", "zero = off & (known_sum < 0)",
           ("tests/test_ingestion.py::test_completion_redistributes_zero_row", COMPLETION)),
    Mutant("complete-negative-within-tol", INGESTION,
           "negative = has_missing & (residual < -tol)", "negative = has_missing & (residual < 0)",
           ("tests/test_ingestion.py::test_completion_worked_example", COMPLETION)),
    Mutant("complete-negative-past-tol", INGESTION,
           "negative = has_missing & (residual < -tol)",
           "negative = has_missing & (residual < tol)",
           ("tests/test_ingestion.py::test_completion_worked_example", COMPLETION)),
    Mutant("complete-uniform-without-residual", INGESTION,
           "uniform = has_missing & (weight_sum[:, 0] <= 0) & (r[:, 0] > tol)",
           "uniform = has_missing & (weight_sum[:, 0] <= 0)",
           ("tests/test_ingestion.py::test_completion_uniform_fill_when_averages_are_zero",
            COMPLETION)),
    Mutant("complete-uniform-with-weights", INGESTION,
           "uniform = has_missing & (weight_sum[:, 0] <= 0) & (r[:, 0] > tol)",
           "uniform = has_missing & (r[:, 0] > tol)",
           ("tests/test_ingestion.py::test_completion_worked_example",)),
    Mutant("complete-undefined-average-passes", INGESTION, FAILING,
           "failing = (negative & (known_sum <= 0)) | overflow | broken",
           ("tests/test_ingestion.py::test_completion_errors_on_undefined_average",)),
    Mutant("complete-negative-known-sum-passes", INGESTION, FAILING,
           "failing = undefined.any(axis=1) | overflow | broken",
           (f"{REFUSED_ROW}[negative-known-sum]",)),
    Mutant("complete-holdings-overflow-passes", INGESTION, FAILING,
           "failing = undefined.any(axis=1) | (negative & (known_sum <= 0)) | broken",
           (f"{REFUSED_ROW}[holdings-sum-to-inf]",)),
    Mutant("complete-broken-row-passes", INGESTION, FAILING,
           "failing = undefined.any(axis=1) | (negative & (known_sum <= 0)) | overflow",
           (f"{REFUSED_ROW}[completion-overflows]",)),
    Mutant("complete-zero-known-sum-named-broken", INGESTION,
           "if negative[i] and known_sum[i] <= 0:",
           "if negative[i] and known_sum[i] <= 0 and not broken[i]:",
           (f"{REFUSED_ROW}[negative-zero-known-sum]",)),
    # synthetic generation: the holdings in the gamma draws' own buffer
    Mutant("synthetic-holdings-temporary", INGESTION,
           "holdings = np.multiply(raw, sizes[:, None], out=raw)",
           "holdings = sizes[:, None] * raw",
           ("tests/test_ingestion.py::test_synthetic_generation_peaks_in_bounded_memory",)),
    Mutant("synthetic-weights-temporary", INGESTION,
           "raw /= raw.sum(axis=1, keepdims=True)", "raw = raw / raw.sum(axis=1, keepdims=True)",
           ("tests/test_ingestion.py::test_synthetic_generation_peaks_in_bounded_memory",)),
    Mutant("synthetic-ids-tuple", INGESTION,
           'np.fromiter((f"B{i:05d}" for i in range(n)), dtype=StringDType(), count=n)',
           'tuple(f"B{i:05d}" for i in range(n))',
           ("tests/test_ingestion.py::test_synthetic_generation_peaks_in_bounded_memory",)),
    # labels: the optional header is the first non-blank record
    Mutant("labels-header-kept", INGESTION,
           'if ids and ids[0].lower() == "bank_id":', "if False:",
           ("tests/test_ingestion.py::test_labels_header_is_the_first_non_blank_record",)),
    # labels: the duplicate warning counts the extra copies
    Mutant("labels-duplicates-unwarned", INGESTION, "    if dupes:", "    if False:",
           ("tests/test_ingestion.py::test_labels_dedupe_warns",)),
    Mutant("labels-counts-repeated-ids", INGESTION, "dupes = len(ids) - len(unique)",
           "dupes = sum(ids.count(i) > 1 for i in unique)",
           ("tests/test_ingestion.py::test_labels_dedupe_warns",)),
)


def source(tree: str, mutant: Mutant) -> str:
    """The text of the mutant's file in tree; its line must occur exactly once."""
    with open(os.path.join(tree, mutant.path)) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}")
    return text


def run_tests(tree: str, tests) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--only", nargs="*", default=None, help="mutant names to run")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--all-tests", action="store_true",
                      help="run the whole tests/ directory for every mutant")
    mode.add_argument("--each", action="store_true",
                      help="run each kill id alone; one that passes is UNEXPECTED")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cascadefin-mutants-") as tmp:
        tree = os.path.join(args.workdir or tmp, "tree")
        shutil.rmtree(tree, ignore_errors=True)
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "_work", "_out"))
        return run_all(tree, args)


def run_all(tree: str, args) -> int:
    chosen = [m for m in MUTANTS if args.only is None or m.name in args.only]
    originals = [source(tree, m) for m in chosen]   # every listed line still exists
    unexpected, start = 0, time.perf_counter()
    for mutant, original in zip(chosen, originals):
        if not (mutant.kills or args.all_tests):
            print(f"equivalent  {mutant.name}: {mutant.proof}")
            continue
        if args.all_tests:
            runs = [["tests"]]
        else:
            runs = [[kill] for kill in mutant.kills] if args.each else [list(mutant.kills)]
        path = os.path.join(tree, mutant.path)
        with open(path, "w") as fh:
            fh.write(original.replace(mutant.old, mutant.new))
        try:
            for tests in runs:
                began = time.perf_counter()
                code = run_tests(tree, tests)
                seconds = time.perf_counter() - began
                # pytest exits 1 when a test fails; 2 to 5 mean it never ran them
                verdict = {0: "survived", 1: "killed"}.get(code, f"exit {code}")
                expected = code == (1 if mutant.kills else 0)
                unexpected += not expected
                print(f"{verdict:10s}  {seconds:6.1f} s  {mutant.name}"
                      + (f"  {tests[0]}" if args.each else "")
                      + ("  SLOW" if seconds > SLOW_S else "")
                      + ("" if expected else "  UNEXPECTED"), flush=True)
        finally:
            with open(path, "w") as fh:
                fh.write(original)
    print(f"total       {time.perf_counter() - start:6.1f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
