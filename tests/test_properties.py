"""Property tests: the engine against the reference loop on random instances,
screened barrier passes against full ones, nested survivor sets, the lattice
analyses against themselves across --jobs and the ROC reducer against a
bank-by-bank count, columnar completion against the row-by-row reference,
the CSV reader against a record-by-record one, and bank ids through a written
and re-read CSV."""

import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cascadefin as cf
from cascadefin import ingestion

from helpers import make_network, random_instance, rows
from reference import (brute_force_cascade, brute_force_roc, complete_rows,
                       full_barrier_round, load_csv, load_labels)

# derandomized, so every run of the suite checks the same examples
ENGINE = settings(max_examples=300, deadline=None, derandomize=True, database=None)
LATTICE = settings(max_examples=4, deadline=None, derandomize=True, database=None)

# p and alpha stay at 0 or above 1e-6: at subnormal magnitudes alpha * sum(B)
# (engine) and sum(alpha * B) (reference) underflow differently
prices = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(1e-6, 1.0))


@st.composite
def instances(draw):
    """(holdings, liabilities, shocks, alpha, eta, seed); some assets may have
    no holder at all, but every shocked asset has one (no shock when none has)."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    cell = st.one_of(st.just(0.0), st.floats(0.5, 100.0))
    holdings = np.array(draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                      min_size=n, max_size=n)))
    dead = draw(st.sets(st.integers(0, m - 1), max_size=m - 1))
    holdings[:, sorted(dead)] = 0.0
    leverage = np.array(draw(st.lists(st.floats(0.6, 1.1), min_size=n, max_size=n)))
    live = np.flatnonzero(holdings.any(axis=0)).tolist()
    shocks = draw(st.dictionaries(st.sampled_from(live), prices, min_size=1,
                                  max_size=len(live))) if live else {}
    alpha = draw(prices)
    eta = draw(st.one_of(st.sampled_from([0.0, 0.26, 0.5]), st.floats(0.0, 0.5)))
    seed = draw(st.integers(0, 2**32 - 1))
    return holdings, leverage * holdings.sum(axis=1), shocks, alpha, eta, seed


@ENGINE
@given(instances())
def test_engine_matches_reference(instance):
    holdings, liabilities, shocks, alpha, eta, seed = instance
    params = cf.CascadeParams(alpha=alpha, eta=eta, shocked_assets=shocks)
    res = cf.run_cascade(make_network(holdings, liabilities), params, rng=cf.stream(seed))
    ref = brute_force_cascade(holdings.tolist(), liabilities.tolist(), shocks,
                              alpha, eta, rng=cf.stream(seed))
    assert res.failed_round.tolist() == ref["failed_round"]
    assert res.rounds_executed == ref["rounds"]
    assert res.failures_per_round == ref["failures_per_round"]
    # absolute: when a sale takes nearly the whole market (alpha near 1, every
    # holder failing), A - D cancels and only absolute precision survives
    assert np.allclose(res.price_index, ref["price_index"], rtol=0.0, atol=1e-12)
    assert np.allclose(res.market_value, ref["market_value"], rtol=1e-12, atol=1e-9)


@st.composite
def barrier_instances(draw):
    """(holdings, liabilities, market values, shocks, alpha, eta, seed) that
    put banks at or next to the barrier. Holdings are multiples of 1/8, so a
    row sums exactly in any order and a total can equal its liabilities;
    leverage is 1, just below 1, or 0 (a bank without liabilities); alpha
    near 1 sells off nearly a whole market, so price factors come close to 0;
    markets shrunk below the holdings' sum make sales clamp; p may be 0, on
    an asset whose market is positive, as every shocked asset's is. In
    half the instances the magnitudes are tiny: the holdings may be scaled by
    2^-903 (rows on both sides of BOUND_FLOOR) or 2^-1071 (subnormal, on the
    2^-1074 grid), and p may put a price near BOUND_FLOOR or make it
    subnormal."""
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 4))
    tiny = draw(st.booleans())
    scale = draw(st.sampled_from([1.0, 2.0 ** -903, 2.0 ** -1071])) if tiny else 1.0
    eighths = st.integers(0, 800).map(lambda k: k / 8.0 * scale)
    holdings = np.array(draw(st.lists(st.lists(eighths, min_size=m, max_size=m),
                                      min_size=n, max_size=n)))
    leverage = np.array(draw(st.lists(
        st.one_of(st.sampled_from([1.0, 1.0 - 1e-12, 0.0]), st.floats(0.9, 1.0)),
        min_size=n, max_size=n)))
    shrink = np.array(draw(st.lists(st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
                                    min_size=m, max_size=m)))
    p = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.8, 1.0))
    if tiny:
        p = st.one_of(p, st.sampled_from([2.0 ** -899, 2.0 ** -901, 2.0 ** -1060]))
    market = holdings.sum(axis=0) * shrink
    live = np.flatnonzero(market).tolist()
    shocks = draw(st.dictionaries(st.sampled_from(live), p, min_size=1,
                                  max_size=len(live))) if live else {}
    alpha = draw(st.one_of(st.sampled_from([1.0, 1.0 - 1e-9, 0.5]), st.floats(0.9, 1.0)))
    eta = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    seed = draw(st.integers(0, 2**32 - 1))
    return holdings, leverage * holdings.sum(axis=1), market, shocks, alpha, eta, seed


# twice the examples: only the instances at normal magnitudes, about half,
# are also checked against the reference
@settings(ENGINE, max_examples=2 * ENGINE.max_examples)
@given(barrier_instances())
# rows below BOUND_FLOOR: screening against the bare threshold fails bank 0
# in no round, where the full pass fails it in round 3
@example((np.array([[1.5e-323], [1.9e-322], [1.037334851695199e-148],
                    [3.175857602419202e-148]]),
          np.array([1e-323, 1.3e-322, 7.403902696465467e-149, 1.279592562817586e-148]),
          None, {0: 0.5}, 0.3, 0.5, 7))
# a price taken below BOUND_FLOOR rounds with an absolute error: after the
# sale's factor fl(1/3), bank 0 holds 5/16 of its former total, not 1/3, so
# a bound scaled by 1/3 would save it in round 2
@example((np.array([[2.0 ** 172], [2.0 ** 173]]), np.array([0.32 * 2.0 ** -898, 1.0]),
          None, {0: 2.0 ** -1070}, 1.0, 0.0, 0))
def test_screening_changes_nothing_at_the_barrier(instance):
    holdings, liabilities, market, shocks, alpha, eta, seed = instance
    net = make_network(holdings, liabilities, market_value=market)
    params = cf.CascadeParams(alpha=alpha, eta=eta, shocked_assets=shocks)
    res = cf.run_cascade(net, params, rng=cf.stream(seed))
    with mock.patch.object(cf.cascade, "evaluate_round", full_barrier_round):
        full = cf.run_cascade(net, params, rng=cf.stream(seed))
    # summing every row gives the same run, to the bit
    assert res.failed_round.tobytes() == full.failed_round.tobytes()
    assert res.failures_per_round == full.failures_per_round
    assert res.price_trajectory.tobytes() == full.price_trajectory.tobytes()
    assert res.market_value.tobytes() == full.market_value.tobytes()
    assert res.diagnostics == full.diagnostics
    # the reference scales each holding round by round, which rounds apart
    # from holdings * price index once products underflow: it is an oracle at
    # normal magnitudes only
    if holdings[holdings > 0].min(initial=1.0) < 0.125 or \
            any(0.0 < p < 0.5 for p in shocks.values()):
        return
    ref = brute_force_cascade(holdings.tolist(), liabilities.tolist(), shocks,
                              alpha, eta, rng=cf.stream(seed), market=net.market_value.tolist())
    assert res.failed_round.tolist() == ref["failed_round"]
    assert res.rounds_executed == ref["rounds"]
    assert res.failures_per_round == ref["failures_per_round"]
    assert np.allclose(res.price_index, ref["price_index"], rtol=0.0, atol=1e-12)


@ENGINE
@given(st.integers(1, 40), st.integers(1, 30), st.booleans(), st.integers(0, 2**32 - 1))
@example(13, 30, True, 0)
def test_contiguous_row_sums_match_gathered_rows(m, n, fortran, seed):
    # round 0 takes every bound from one sum over the network's rows; summed
    # C-contiguous, a row gives the bits of the same row gathered and
    # multiplied by prices 1, whichever rows are gathered with it
    gen = cf.stream(seed)
    holdings = gen.uniform(0.0, 1.0, (n, m)) * 10.0 ** gen.integers(-6, 7, (n, m))
    net = make_network(np.asfortranarray(holdings) if fortran else holdings, np.zeros(n))
    bound = np.sum(net.holdings, axis=1)
    rows = np.sort(gen.permutation(n)[:gen.integers(1, n + 1)])
    positions = net.holdings.take(rows, axis=0)
    positions *= np.ones(m)
    assert positions.sum(axis=1).tobytes() == bound[rows].tobytes()


@ENGINE
@given(instances(), prices, prices, prices, prices)
def test_survivor_sets_nest_at_eta_zero(instance, p1, p2, alpha1, alpha2):
    # a deeper shock or a larger alpha never saves a bank
    holdings, liabilities, shocks, _, _, _ = instance
    net = make_network(holdings, liabilities)

    def survivors(p, alpha):
        params = cf.CascadeParams(alpha=alpha, eta=0.0, shocked_assets=dict.fromkeys(shocks, p))
        res = cf.run_cascade(net, params, None)
        return set(np.flatnonzero(res.failed_round == cf.SURVIVED).tolist())

    p_lo, p_hi = sorted((p1, p2))
    a_lo, a_hi = sorted((alpha1, alpha2))
    assert survivors(p_lo, a_hi) <= survivors(p_lo, a_lo) <= survivors(p_hi, a_lo)
    assert survivors(p_lo, a_hi) <= survivors(p_hi, a_hi) <= survivors(p_hi, a_lo)


@st.composite
def small_markets(draw):
    """A random network of up to 30 banks and a label set drawn from it."""
    seed = draw(st.integers(0, 2**32 - 1))
    holdings, liabilities = random_instance(cf.stream(seed), n_lo=4, n_hi=30, m_hi=4)
    net = make_network(holdings, liabilities)
    labels = draw(st.sets(st.sampled_from(net.bank_ids), min_size=1,
                          max_size=net.n_banks - 1))
    return net, labels, draw(st.integers(0, 1000))


# at least two values, so every lattice has cells for both workers
grids = st.lists(prices, min_size=2, max_size=3)
etas = st.lists(st.sampled_from([0.0, 0.1, 0.26]), min_size=1, max_size=2)


@LATTICE
@given(small_markets(), grids, grids, etas)
def test_survival_curves_same_at_jobs_2(market, ps, alphas, eta_grid):
    net, labels, seed = market
    serial = rows(cf.survival_curves(net, labels, 0, ps, alphas, eta_grid, seed=seed))
    assert len(serial) == len(ps) * len(alphas) * len(eta_grid)
    assert rows(cf.survival_curves(net, labels, 0, ps, alphas, eta_grid, seed=seed,
                                   jobs=2)) == serial


@LATTICE
@given(small_markets(), grids, grids, etas, st.integers(1, 3))
def test_roc_grid_same_at_jobs_2(market, ps, alphas, eta_grid, replicates):
    net, labels, seed = market
    serial = rows(cf.roc_grid(net, labels, 0, ps, alphas, eta_grid, seed=seed,
                              replicates=replicates))
    assert len(serial) == 3 * len(ps) * len(alphas) * len(eta_grid)
    assert rows(cf.roc_grid(net, labels, 0, ps, alphas, eta_grid, seed=seed,
                            replicates=replicates, jobs=2)) == serial


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_markets(), grids, grids, etas, st.integers(1, 4))
def test_roc_grid_matches_bank_by_bank_count(market, ps, alphas, eta_grid, replicates):
    # even replicate counts put banks on a tied vote, which is not a majority
    net, labels, seed = market
    points = cf.roc_grid(net, labels, 0, ps, alphas, eta_grid, seed=seed,
                         replicates=replicates)
    expect = brute_force_roc(net, labels, 0, alphas, eta_grid, ps, seed, replicates)
    n_pos = len(labels)
    assert rows(points, "alpha", "eta", "p", "split", "tp_count") == \
        [cell[:5] for cell in expect]
    assert rows(points, "tpr", "fpr") == \
        [(tp / n_pos, fp / (net.n_banks - n_pos)) for *_, tp, fp in expect]


@LATTICE
@given(small_markets(), grids, etas, st.integers(1, 3))
def test_phase_scan_same_at_jobs_2(market, alphas, eta_grid, replicates):
    net, _, seed = market
    kw = dict(replicates=replicates, seed=seed)
    serial = cf.phase_scan(net, 0, [0.5], alphas, eta_grid, **kw)
    parallel = cf.phase_scan(net, 0, [0.5], alphas, eta_grid, jobs=2, **kw)
    assert np.array_equal(serial.mean_survival, parallel.mean_survival)
    if replicates >= 2:
        assert np.array_equal(serial.ci_half, parallel.ci_half)
    else:
        assert serial.ci_half is None and parallel.ci_half is None
    assert np.array_equal(serial.region, parallel.region)


@st.composite
def raw_tables(draw):
    """(total assets, holdings with NaN blanks) of up to 8 banks and 16
    assets, so rows reach numpy's pairwise summation blocks. Rows may be
    consistent, off their total either way (with or without blanks), all
    zero with a positive total, or have a zero total; some columns hold only
    zeros, and row 0 may be a complete donor row."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 16))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
    holdings = np.array(draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                      min_size=n, max_size=n)))
    holdings[:, sorted(draw(st.sets(st.integers(0, m - 1), max_size=m)))] = 0.0
    blank = np.array(draw(st.lists(st.lists(st.sampled_from([False, False, False, True]),
                                            min_size=m, max_size=m),
                                   min_size=n, max_size=n)))
    factor = np.array(draw(st.lists(st.one_of(st.sampled_from([1.0, 0.0]),
                                              st.floats(0.5, 1.5)),
                                    min_size=n, max_size=n)))
    totals = holdings.sum(axis=1) * factor
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        holdings[i] = 0.0
        blank[i] = False
        totals[i] = draw(st.floats(1.0, 1e6))
    if draw(st.booleans()):
        blank[0] = False
        totals[0] = holdings[0].sum()
    return totals, np.where(blank, np.nan, holdings)


@ENGINE
@given(raw_tables())
# a row whose reported cells pass its total by less than the tolerance: no
# negative residual, so its blank is filled with 0 and nothing is rescaled
@example((np.array([100.0, 100.0]), np.array([[60.0, 40.0], [100.00000005, np.nan]])))
# a row with a blank whose known cells miss its total by far: its blank takes
# the residual, and no cell is rescaled
@example((np.array([100.0, 100.0]), np.array([[60.0, 40.0], [30.0, np.nan]])))
# a row whose blank has average weight 0 and whose known cells meet its
# total: its blank is filled with 0, and no repair is reported
@example((np.array([100.0, 50.0]), np.array([[100.0, 0.0], [50.0, np.nan]])))
def test_completion_matches_row_by_row_reference(tab):
    totals, holdings = tab
    ids = tuple(f"b{i}" for i in range(len(totals)))
    raw = cf.RawTable(ids, totals, 0.9 * totals, holdings)
    try:
        avg, expect, report = complete_rows(ids, totals, holdings)
    except (ValueError, cf.SchemaError) as e:
        with pytest.raises(type(e)) as got:
            cf.complete_dataset(raw)
        assert str(got.value) == str(e)
        return
    assert cf.compute_average_weights(raw).tobytes() == avg.tobytes()
    net, got_report = cf.complete_dataset(raw)
    assert net.holdings.tobytes() == expect.tobytes()
    assert json.dumps(got_report) == json.dumps(report)
    sums = net.holdings.sum(axis=1)
    assert np.all(np.abs(sums - totals) <= 1e-9 * np.maximum(totals, 1.0))


# CSV fields as written in the file. Every spelling of ID_SPELLINGS reads as
# the same id, quoted or padded or spanning lines
ID_SPELLINGS = ["b{}", "b{}", " b{} ", '"b{}"', '"\nb{}\r\n"']
BAD_IDS = ['"l\nm"', "", '"n\ro"', "  ", '""']
GOOD_CELLS = ["5", "0", "1.5", " 2 ", "1e3", "-0.0", "1e-400", ".5"]
BAD_CELLS = ["-1", "1_0", "", "nan", "\u0663", "inf", "-2.5", "0x10", "-inf", "1e309", "x",
             "1.5e"]


@st.composite
def balance_sheet_files(draw):
    """The text of a small balance-sheet CSV: LF, CRLF or CR line ends, maybe
    a byte order mark, blank lines and no final line end. A row may repeat an
    earlier row's id, leave holdings blank, and have one fault: too few or
    too many fields, an empty id or one holding a line break, or a cell the
    reader refuses."""
    m = draw(st.integers(1, 3))
    header = ingestion.expected_columns(m)
    # now and then a header cut short, or out of order
    header = draw(st.sampled_from([header] * 16 + [header[:2], header[:3],
                                                   header[:3] + header[:2:-1], header[::-1]]))
    records = [",".join(header)]
    for i in range(draw(st.integers(0, 12))):
        repeat = i > 0 and draw(st.integers(0, 5)) == 0
        bank_id = draw(st.sampled_from(ID_SPELLINGS)).format(draw(st.integers(0, i - 1))
                                                             if repeat else i)
        fields = [bank_id, *(draw(st.sampled_from(GOOD_CELLS)) for _ in range(2 + m))]
        for k in range(3, len(fields)):
            if draw(st.integers(0, 4)) == 0:
                fields[k] = ""
        fault = draw(st.sampled_from([None] * 9 + ["cell", "id", "width"]))
        if fault == "width":
            fields = (fields + ["5"])[:draw(st.sampled_from([1, 2 + m, 4 + m]))]
        elif fault == "id":
            fields[0] = draw(st.sampled_from(BAD_IDS))
        elif fault == "cell":
            fields[draw(st.integers(1, 2 + m))] = draw(st.sampled_from(BAD_CELLS))
        records += [" "] * draw(st.sampled_from([0, 0, 0, 1])) + [",".join(fields)]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(records) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@ENGINE
@given(balance_sheet_files())
# one hand-built file for each reader mutant the property kills only after a
# long search and shrink, and one for each file feature worth holding
@example("bank_id,total_assets,total_liabilities,asset_00\na,1_0,5,\n")
@example("bank_id,total_assets,total_liabilities,asset_00\na,10,5,0x10\nb,10\n")
@example("bank_id,total_assets,total_liabilities,asset_00\na,10,5,5,5\n")
@example("bank_id,total_assets,total_liabilities,asset_00\na,-10,5,5\nb,10,5,-1\n")
@example("bank_id,total_assets,total_liabilities,asset_01,asset_00\na,10,5,5,5\n")
@example("bank_id,total_assets,total_liabilities,asset_00\na,10,5,5\nb,10,5,\na,10,5,5\n"
         "c,10,5,x\n")
@example('\ufeffbank_id,total_assets,total_liabilities,asset_00,asset_01\r"\na",10,5,5,\r\r'
         '"b\n",10,5,,5\r \rc,10,5,5,-0.0\rd,10,5,\u0663,5')
def test_csv_reader_matches_record_by_record_reference(text):
    # the message of the first error, or the same arrays bit for bit and the
    # same row lines, at every block size; a block the parse refuses holds a
    # row the error names, or the reader would raise no SchemaError
    expect = load_csv(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "raw.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        for block_rows in (1, 2, 3, 8192):
            with mock.patch.object(ingestion, "BLOCK_ROWS", block_rows):
                try:
                    raw = cf.load_raw_csv(path)
                except cf.SchemaError as e:
                    assert str(e) == expect
                    continue
            assert not isinstance(expect, str), expect
            ids, assets, liabilities, holdings, lines = expect
            assert list(raw.bank_ids) == ids
            assert raw.total_assets.tobytes() == assets.tobytes()
            assert raw.total_liabilities.tobytes() == liabilities.tobytes()
            assert raw.holdings.tobytes() == holdings.tobytes()
            assert ingestion._row_lines(path, *range(len(ids))) == lines


# label-file records as written: ids plain, padded, quoted around a comma or
# a line break, or with a quote left open to the end of the file; blank lines
# and records; headers in any case; now and then a field over csv's limit
LABEL_RECORDS = 4 * ["b{}", " b{} ", '"b{}"', '"b,{}"', '"\nb\r\n{} "', "", " ", " , ",
                     "bank_id", "Bank_ID", ' "BANK_ID" '] + ['"b{}', '"' + "x" * 131_073 + '"']


@st.composite
def label_files(draw):
    """The text of a small label file: LF, CRLF or CR line ends, maybe a byte
    order mark and no final line end; ids repeat often, and a record may carry
    more fields."""
    records = [draw(st.sampled_from(LABEL_RECORDS)).format(draw(st.integers(0, 3)))
               + draw(st.sampled_from(["", "", "", ",x", ","]))
               for _ in range(draw(st.integers(0, 8)))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(records) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@ENGINE
@given(label_files())
# one hand-built file for each mutant the property kills
@example("\r\n , \r\n Bank_ID \r\nb1\r\n")
@example("b1\nb2\nb1\n")
@example('"b1"\r"b1 "\rb1,\r')
@example('\ufeffbank_id\n"b\n1"\n\n"' + "x" * 131_073 + '"\nb2\n')
@example("b1,\n,\n b2 , \n,b1\nb3\n")
def test_label_reader_matches_record_by_record_reference(text):
    # the reference's message, or its set of ids and the warning its count of
    # repeats gives, none without a repeat
    expect = load_labels(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labels.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                labels = cf.load_labels(path)
            except cf.SchemaError as e:
                assert str(e) == expect
                return
    assert not isinstance(expect, str), expect
    ids, repeats = expect
    assert labels == ids
    assert [str(w.message) for w in caught] == \
        [f"label file contains {repeats} duplicate ids; deduplicated"] * bool(repeats)


# an id a CSV keeps as it is: the parse strips whitespace from both ends and
# refuses a line break, and a NUL is neither; some over 15 UTF-8 bytes, which
# a StringDType column keeps outside the array
bank_ids = st.one_of(
    st.sampled_from(["a", "a\0", "\0a\0b", "a,b", 'say "hi"', '"', "two words",
                     "\U0001F600 x", "é" * 8, "B" * 16, "long id, \"quoted\"\0"]),
    st.text(st.characters(blacklist_characters="\r\n"), min_size=1, max_size=24)
    .filter(lambda text: text == text.strip()))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(bank_ids, min_size=1, max_size=6, unique=True))
@example(["a", "a\0"])
def test_bank_ids_round_trip_through_a_completed_csv(ids):
    n = len(ids)
    net = cf.BankAssetNetwork(ids, np.ones((n, 1)), np.ones(n), np.full(n, 0.5))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "completed.csv")
        cf.save_completed_csv(net, path)
        for loaded in (cf.load_raw_csv(path), cf.load_completed_network(path)):
            assert [type(b) for b in loaded.bank_ids] == [str] * n
            assert list(loaded.bank_ids) == ids
