import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from randers import (ConstantField, ConstantForm, CsvFormatError, MediumModel,
                     add_noise, decompose, distance_matrix, load,
                     sample_boundary, save, zermelo_construct)
from randers.boundary import (_HEADER_RE, BoundaryDistanceData, BoundarySamples,
                              NoiseDescriptor)


def _reference_load(path):
    """The earlier line-by-line ``load``: the reference the streamed parse must match."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError("empty file", line=1)
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise CsvFormatError("bad header (expected '# n=<n> R=<R> spec=<hash> units=time')", line=1)
    n = int(m.group("n"))
    radius = float(m.group("R"))
    spec_hash = m.group("spec")
    noise = None
    if m.group("sigma") is not None:
        noise = NoiseDescriptor(sigma=float(m.group("sigma")), seed=int(m.group("seed")))
    if len(lines) < 2 or lines[1].strip() != "i,j,angle_i,angle_j,d":
        raise CsvFormatError("missing column header 'i,j,angle_i,angle_j,d'", line=2)

    angles = np.full(n, np.nan)
    D = np.zeros((n, n))
    seen = np.zeros((n, n), dtype=bool)
    for ln, raw in enumerate(lines[2:], start=3):
        if not raw.strip():
            continue
        cols = raw.split(",")
        if len(cols) != 5:
            raise CsvFormatError(f"expected 5 columns, found {len(cols)}", line=ln)
        try:
            i, j = int(cols[0]), int(cols[1])
            ai, aj, d = float(cols[2]), float(cols[3]), float(cols[4])
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=ln) from None
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise CsvFormatError(f"pair ({i}, {j}) out of range for n={n}", line=ln)
        if seen[i, j]:
            raise CsvFormatError(f"duplicate pair ({i}, {j})", line=ln)
        for idx, val in ((i, ai), (j, aj)):
            if np.isnan(angles[idx]):
                angles[idx] = val
            elif angles[idx] != val:
                raise CsvFormatError(f"inconsistent angle for sample {idx}", line=ln)
        D[i, j] = d
        seen[i, j] = True

    missing = ~seen & ~np.eye(n, dtype=bool)
    if missing.any():
        i, j = np.argwhere(missing)[0]
        raise CsvFormatError(f"missing entry for pair ({i}, {j}); file truncated?",
                             line=len(lines) + 1)
    if np.isnan(angles).any():
        raise CsvFormatError("some samples never appeared in any row", line=len(lines))
    return BoundaryDistanceData(angles=angles, radius=radius, matrix=D,
                                spec_hash=spec_hash, noise=noise)


@pytest.fixture(scope="module")
def euclid4(euclid_spec):
    return distance_matrix(euclid_spec, 4)


@pytest.fixture(scope="module")
def wind2(wind_spec, dom):
    return distance_matrix(wind_spec, sample_boundary(dom, 2))


class TestSampling:
    def test_four_points(self, dom):
        s = sample_boundary(dom, 4)
        assert np.allclose(s.angles, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_two_points_antipodal(self, dom):
        s = sample_boundary(dom, 2)
        assert np.allclose(s.points[0], [1.0, 0.0])
        assert np.allclose(s.points[1], [-1.0, 0.0])

    def test_points_exactly_on_boundary(self, dom):
        s = sample_boundary(dom, 16)
        assert np.abs(np.linalg.norm(s.points, axis=1) - dom.radius).max() < 1e-15

    def test_minimum_count(self, dom):
        with pytest.raises(ValueError):
            sample_boundary(dom, 1)

    @pytest.mark.parametrize("n", [2.5, 4.0, True, "4"])
    def test_count_must_be_an_integer(self, dom, n):
        # 2.5 used to give 3 samples spaced 2 pi / 2.5, leaving a 1.26 rad last gap
        with pytest.raises(ValueError, match="boundary sample count must be an integer"):
            sample_boundary(dom, n)

    def test_numpy_integer_count(self, dom):
        ref = sample_boundary(dom, 6).angles
        assert np.array_equal(sample_boundary(dom, np.int64(6)).angles, ref)


class TestDistanceMatrix:
    def test_euclid_chords(self, euclid4):
        D = euclid4.matrix
        root2 = math.sqrt(2.0)
        expect = np.array([[0, root2, 2, root2],
                           [root2, 0, root2, 2],
                           [2, root2, 0, root2],
                           [root2, 2, root2, 0]])
        assert np.abs(D - expect).max() < 1e-8
        assert np.abs(D - D.T).max() < 2e-8  # reversible spec is symmetric

    def test_wind_oracle(self, wind2):
        D = wind2.matrix
        # sample 0 = (1, 0), sample 1 = (-1, 0)
        assert D[1, 0] == pytest.approx(4.0 / 3.0, abs=1e-7)
        assert D[0, 1] == pytest.approx(4.0, abs=1e-7)

    def test_diagnostics(self, euclid4):
        d = euclid4.diagnostics
        assert (d.branch_counts[~np.eye(4, dtype=bool)] == 1).all()
        assert np.abs(d.miss).max() <= 1e-8
        assert not d.excluded.any()

    def test_diagonal_zero_offdiag_positive(self, euclid4):
        D = euclid4.matrix
        assert np.diagonal(D).max() == 0.0
        off = ~np.eye(4, dtype=bool)
        assert (D[off] > 0).all()

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_parallel_matches_serial(self, wind_spec, threads):
        # with 8 threads and 5 starts, three workers get no pairs
        serial = distance_matrix(wind_spec, 5, threads=1)
        parallel = distance_matrix(wind_spec, 5, threads=threads)
        assert np.array_equal(serial.matrix, parallel.matrix)
        for field in ("branch_counts", "miss", "correction"):
            assert np.array_equal(getattr(serial.diagnostics, field),
                                  getattr(parallel.diagnostics, field))

    def test_numpy_integer_sample_count(self, euclid_spec):
        a = distance_matrix(euclid_spec, np.int64(4))
        b = distance_matrix(euclid_spec, 4)
        assert a.n == 4 and np.array_equal(a.matrix, b.matrix)

    def test_repeat_build_bitwise_identical(self, euclid_spec):
        a = distance_matrix(euclid_spec, 5)
        b = distance_matrix(euclid_spec, 5)
        assert np.array_equal(a.matrix, b.matrix)


class TestDecompose:
    def test_wind_values(self, wind2):
        sym, anti = decompose(wind2)
        assert sym[1, 0] == pytest.approx(8.0 / 3.0, abs=1e-7)
        assert anti[1, 0] == pytest.approx(-4.0 / 3.0, abs=1e-7)

    def test_reconstruction_to_roundoff(self, wind2):
        # halving the rounded sum/difference loses at most one ulp, so the
        # reconstruction identity holds to machine epsilon, not bitwise
        sym, anti = decompose(wind2)
        err = np.abs(sym + anti - wind2.matrix).max()
        assert err <= 2 * np.finfo(float).eps * np.abs(wind2.matrix).max()

    def test_symmetry_properties(self, euclid4):
        sym, anti = decompose(euclid4)
        assert np.array_equal(sym, sym.T)
        assert np.array_equal(anti, -anti.T)
        assert np.abs(anti).max() <= 2e-8  # reversible spec


class TestNoise:
    def test_zero_sigma_identity(self, euclid4):
        noisy = add_noise(euclid4, 0.0, seed=7)
        assert np.array_equal(noisy.matrix, euclid4.matrix)

    def test_seed_reproducible(self, euclid4):
        a = add_noise(euclid4, 1e-3, seed=42)
        b = add_noise(euclid4, 1e-3, seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.noise.sigma == 1e-3 and a.noise.seed == 42

    def test_bounded_and_offdiagonal_only(self, euclid4):
        noisy = add_noise(euclid4, 1e-3, seed=42)
        bump = noisy.matrix - euclid4.matrix
        assert np.diagonal(bump).max() == 0.0
        assert np.abs(bump).max() <= 6e-3

    def test_decompose_still_reconstructs(self, euclid4):
        noisy = add_noise(euclid4, 1e-3, seed=1)
        sym, anti = decompose(noisy)
        err = np.abs(sym + anti - noisy.matrix).max()
        assert err <= 2 * np.finfo(float).eps * np.abs(noisy.matrix).max()

    def test_negative_sigma_rejected(self, euclid4):
        with pytest.raises(ValueError):
            add_noise(euclid4, -1.0, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_nonfinite_sigma_rejected(self, euclid4, sigma):
        # nan gave an all-NaN matrix and inf gave inf entries
        with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
            add_noise(euclid4, sigma, seed=1)


class TestCsv:
    def test_roundtrip_bitwise(self, euclid4, tmp_path):
        p = tmp_path / "d.csv"
        save(euclid4, p)
        back = load(p)
        assert np.array_equal(back.matrix, euclid4.matrix)
        assert np.array_equal(back.angles, euclid4.angles)
        assert back.radius == euclid4.radius
        assert back.spec_hash == euclid4.spec_hash

    def test_noise_descriptor_roundtrip(self, euclid4, tmp_path):
        noisy = add_noise(euclid4, 1e-3, seed=9)
        p = tmp_path / "n.csv"
        save(noisy, p)
        back = load(p)
        assert np.array_equal(back.matrix, noisy.matrix)
        assert back.noise.sigma == 1e-3 and back.noise.seed == 9

    def test_truncated_file_reports_line(self, euclid4, tmp_path):
        p = tmp_path / "t.csv"
        save(euclid4, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CsvFormatError, match="line"):
            load(p)

    def test_header_mismatch_rejected(self, euclid4, tmp_path):
        p = tmp_path / "m.csv"
        save(euclid4, p)
        text = p.read_text().replace("# n=4", "# n=5")
        p.write_text(text)
        with pytest.raises(CsvFormatError):
            load(p)

    def test_malformed_row_reports_line(self, euclid4, tmp_path):
        p = tmp_path / "b.csv"
        save(euclid4, p)
        lines = p.read_text().splitlines()
        lines[4] = "0,2,not_a_number,0.0,1.5"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match="line 5"):
            load(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("junk\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            load(p)

    @pytest.mark.parametrize("text, message, line", [
        ("", "empty file", 1),
        ("# n=2 R=1.0 spec=abc units=time\n", "missing column header 'i,j,angle_i,angle_j,d'", 2),
        ("# n=2 R=1.0 spec=abc units=time\ni,j,d\n", "missing column header", 2),
        # one sample has no pairs, so no row gives its angle
        ("# n=1 R=1.0 spec=abc units=time\ni,j,angle_i,angle_j,d\n",
         "some samples never appeared in any row", 2),
    ])
    def test_rejected_file_names_its_line(self, tmp_path, text, message, line):
        p = tmp_path / "x.csv"
        p.write_text(text)
        with pytest.raises(CsvFormatError, match=f"^line {line}: {message}") as exc:
            load(p)
        assert exc.value.line == line
        assert _outcome(_reference_load, p) == _outcome(load, p)


def _outcome(loader, path):
    """What a loader makes of a file: its data bit for bit, or its error and line."""
    try:
        d = loader(path)
    except CsvFormatError as exc:
        return ("error", str(exc), exc.line)
    return ("data", d.matrix.tobytes(), d.angles.tobytes(), d.radius.hex(),
            d.spec_hash, d.noise)


def _saved_lines(tmp_path):
    """Lines of a saved n = 5 file with noise and one excluded (NaN) pair."""
    n = 5
    D = np.random.default_rng(3).uniform(0.1, 2.0, (n, n))
    np.fill_diagonal(D, 0.0)
    D[1, 2] = np.nan
    data = BoundaryDistanceData(angles=2.0 * math.pi * np.arange(n) / n, radius=1.5,
                                matrix=D, spec_hash="9f3a", noise=NoiseDescriptor(0.01, 4))
    p = tmp_path / "base.csv"
    save(data, p)
    return p.read_text().splitlines()


def _set_col(line, col, text):
    cols = line.split(",")
    cols[col] = text
    return ",".join(cols)


def _mutate(lines, op):
    """Apply one edit; positions are taken modulo the body so any integer works."""
    kind, *args = op
    body = len(lines) - 2
    if kind == "truncate":
        return lines[:2]
    if kind == "crlf":           # applied when the file is written
        return lines
    if kind == "blank":
        lines.insert(2 + args[0] % (body + 1), args[1])
        return lines
    if body == 0:
        return lines
    k = 2 + args[0] % body
    if kind == "delete":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(2 + args[1] % (body + 1), lines[k])
    elif kind == "swap":
        m = 2 + args[1] % body
        lines[k], lines[m] = lines[m], lines[k]
    elif kind in ("index", "corrupt", "angle"):
        cols = lines[k].split(",")
        col = args[1] % len(cols)
        cols[col] = cols[1 - col] if args[2] == "diagonal" and len(cols) > 1 else args[2]
        lines[k] = ",".join(cols)
    elif kind == "drop_column":
        cols = lines[k].split(",")
        del cols[args[1] % len(cols)]
        lines[k] = ",".join(cols)
    elif kind == "add_column":
        lines[k] += ",1.0"
    return lines


def _has_nonfinite_angle(lines):
    for raw in lines[2:]:
        cols = raw.split(",")
        if len(cols) == 5:
            for text in cols[2:4]:
                try:
                    if not math.isfinite(float(text)):
                        return True
                except ValueError:
                    pass
    return False


_POS = st.integers(0, 10_000)
_EDITS = st.one_of(
    st.tuples(st.just("delete"), _POS),
    st.tuples(st.just("duplicate"), _POS, _POS),
    st.tuples(st.just("swap"), _POS, _POS),
    st.tuples(st.just("index"), _POS, st.sampled_from([0, 1]),
              st.sampled_from(["-1", "5", "6", "40", "diagonal"])),
    st.tuples(st.just("corrupt"), _POS, st.integers(0, 5),
              st.text(alphabet=" .eE+-0123456789x", max_size=6)),
    st.tuples(st.just("angle"), _POS, st.sampled_from([2, 3]),
              st.floats(allow_nan=False, allow_infinity=False).map(repr)),
    st.tuples(st.just("drop_column"), _POS, st.integers(0, 4)),
    st.tuples(st.just("add_column"), _POS),
    st.tuples(st.just("blank"), _POS, st.sampled_from(["", " ", "\t ", "  \t  "])),
    st.tuples(st.just("crlf")),
    st.tuples(st.just("truncate")),
)


class TestLoadMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(edits=st.lists(_EDITS, min_size=1, max_size=3))
    @example(edits=[("truncate",)])
    @example(edits=[("blank", 3, " \t "), ("blank", 0, "")])
    @example(edits=[("crlf",), ("blank", 7, "  ")])
    @example(edits=[("duplicate", 4, 9), ("corrupt", 0, 4, "x")])
    def test_mutated_file(self, tmp_path_factory, edits):
        # non-finite angles are excluded: the reference accepts them, load does not
        lines = _saved_lines(tmp_path_factory.mktemp("ref"))
        for op in edits:
            lines = _mutate(lines, op)
        assume(not _has_nonfinite_angle(lines))
        newline = "\r\n" if ("crlf",) in edits else "\n"
        p = tmp_path_factory.mktemp("mut") / "m.csv"
        p.write_bytes("".join(line + newline for line in lines).encode())
        assert _outcome(load, p) == _outcome(_reference_load, p)

    # two faults of different kinds, in either order: the earlier line wins;
    # a duplicate row whose angle also differs is reported as the duplicate
    @pytest.mark.parametrize("edits, line, message", [
        ({4: "0,1,<a0>,<a1>,7.0", 6: "0,4,<a0>,<a4>,x"}, 4, "duplicate pair (0, 1)"),
        ({4: "0,2,<a0>,<a2>,x", 6: "0,1,<a0>,<a1>,7.0"}, 4, "could not convert string to float: 'x'"),
        ({5: "0,9,<a0>,<a1>,1.0", 7: "1,0,0.25,<a0>,1.0"}, 5, "pair (0, 9) out of range for n=5"),
        ({5: "0,3,0.25,<a3>,1.0", 7: "1,1,<a1>,<a1>,1.0"}, 5, "inconsistent angle for sample 0"),
        ({4: "0,1,0.25,<a1>,1.0"}, 4, "duplicate pair (0, 1)"),
    ])
    def test_earliest_fault_wins(self, tmp_path, edits, line, message):
        lines = _saved_lines(tmp_path)
        angles = {f"<a{k}>": lines[2 + 4 * k].split(",")[2] for k in range(5)}
        for ln, text in edits.items():
            for key, value in angles.items():
                text = text.replace(key, value)
            lines[ln - 1] = text
        p = tmp_path / "two.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError) as err:
            load(p)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")
        assert _outcome(_reference_load, p) == ("error", str(err.value), line)

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_nonfinite_angle_rejected(self, tmp_path, text):
        lines = _saved_lines(tmp_path)
        lines[2] = _set_col(lines[2], 2, text)       # sample 0 on line 3
        p = tmp_path / "a.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match="^line 3: angle for sample 0 is not finite$"):
            load(p)

    def test_sample_with_only_nan_angles_named(self, tmp_path):
        lines = _saved_lines(tmp_path)
        for k in range(2, len(lines)):
            cols = lines[k].split(",")
            for col in (0, 1):
                if cols[col] == "4":
                    cols[2 + col] = "nan"
            lines[k] = ",".join(cols)
        p = tmp_path / "b.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CsvFormatError, match="^line 6: angle for sample 4 is not finite$"):
            load(p)

    # forms int() and float() read but np.loadtxt does not; save never writes them
    @pytest.mark.parametrize("col, text", [(1, "1_0"), (4, "1_0.5"), (4, "١")])
    def test_unsupported_number_names_line(self, tmp_path, col, text):
        lines = _saved_lines(tmp_path)
        lines[6] = _set_col(lines[6], col, text)
        p = tmp_path / "u.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CsvFormatError, match="^line 7: unsupported number format"):
            load(p)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_ENTRIES = st.one_of(
    _FINITE,
    st.just(math.nan),
    st.just(-0.0),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
)


@st.composite
def _datasets(draw):
    n = draw(st.integers(2, 12))
    D = np.array(draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(D, 0.0)
    noise = draw(st.none() | st.builds(NoiseDescriptor, sigma=_FINITE,
                                       seed=st.integers(0, 2**64)))
    return BoundaryDistanceData(
        angles=np.array(draw(st.lists(_FINITE, min_size=n, max_size=n))),
        radius=draw(st.floats(min_value=1e-300, max_value=1e300)), matrix=D,
        spec_hash=draw(st.text(alphabet="0123456789abcdef", min_size=1, max_size=16)),
        noise=noise)


class TestCsvRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(data=_datasets())
    def test_load_of_save_is_bitwise(self, tmp_path_factory, data):
        p = tmp_path_factory.mktemp("rt") / "d.csv"
        save(data, p)
        back = load(p)
        assert back.matrix.tobytes() == data.matrix.tobytes()
        assert back.angles.tobytes() == data.angles.tobytes()
        assert back.radius.hex() == data.radius.hex()
        assert back.spec_hash == data.spec_hash
        assert repr(back.noise) == repr(data.noise)

    def test_save_bytes_golden(self, tmp_path):
        D = np.array([[0.0, 1.5, math.nan], [0.1, 0.0, -0.0], [5e-324, 1e300, 0.0]])
        data = BoundaryDistanceData(angles=2.0 * math.pi * np.arange(3) / 3, radius=1.0,
                                    matrix=D, spec_hash="0123abcd",
                                    noise=NoiseDescriptor(sigma=0.001, seed=7))
        p = tmp_path / "g.csv"
        save(data, p)
        assert p.read_bytes() == (
            b"# n=3 R=1.0 spec=0123abcd units=time sigma=0.001 seed=7\n"
            b"i,j,angle_i,angle_j,d\n"
            b"0,1,0.0,2.0943951023931953,1.5\n"
            b"0,2,0.0,4.1887902047863905,nan\n"
            b"1,0,2.0943951023931953,0.0,0.1\n"
            b"1,2,2.0943951023931953,4.1887902047863905,-0.0\n"
            b"2,0,4.1887902047863905,0.0,5e-324\n"
            b"2,1,4.1887902047863905,2.0943951023931953,1e+300\n")


def _fake_shots(pairs, time, miss, branch_count, converged):
    """A shooting record giving every pair the same result."""
    from randers.geodesics import PairShots

    pairs = np.asarray(pairs)
    full = lambda v: np.full(len(pairs), v)
    return PairShots(pairs, full(time), full(miss), full(branch_count), full(converged),
                     full(math.nan), full(0.0))


class TestAdmissibilityAbort:
    def test_multi_branch_aborts_with_pair(self, euclid_spec, monkeypatch):
        import randers.boundary as bd
        from randers import NonAdmissibleError

        def fake_shoot(spec, angles, pairs, opts=None, record_paths=False):
            return _fake_shots(pairs, 1.0, 0.0, 2, True)

        monkeypatch.setattr(bd, "shoot_pairs", fake_shoot)
        with pytest.raises(NonAdmissibleError, match=r"^2 geodesic branches for boundary pair "
                                                     r"\(0, 1\); distance matrix build aborted$"):
            bd.distance_matrix(euclid_spec, 3)

    def test_missing_branch_aborts(self, euclid_spec, monkeypatch):
        import randers.boundary as bd
        from randers import ConnectivityError

        def fake_shoot(spec, angles, pairs, opts=None, record_paths=False):
            return _fake_shots(pairs, math.nan, math.nan, 0, False)

        monkeypatch.setattr(bd, "shoot_pairs", fake_shoot)
        with pytest.raises(ConnectivityError,
                           match=r"^no shooting branch found for boundary pair \(0, 1\)$"):
            bd.distance_matrix(euclid_spec, 3)


    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("bad, expected", [
        # (2, 0) would come first in j-major order
        ({(2, 0): (0, False), (1, 2): (3, True)},
         "NonAdmissibleError: 3 geodesic branches for boundary pair (1, 2); "
         "distance matrix build aborted"),
        # branches found but none converged
        ({(2, 0): (0, False), (1, 2): (2, False)},
         "ConnectivityError: no shooting branch found for boundary pair (1, 2)"),
    ], ids=["multi", "unconverged"])
    def test_first_bad_pair_in_i_major_order(self, euclid_spec, monkeypatch, threads, bad,
                                             expected):
        import randers.boundary as bd
        from randers import RandersError

        def fake_shoot(spec, angles, pairs, opts=None, record_paths=False):
            shots = _fake_shots(pairs, 1.0, 0.0, 1, True)
            for pair, (count, converged) in bad.items():
                q = (shots.pairs == pair).all(axis=1)
                shots.branch_count[q], shots.converged[q] = count, converged
            return shots

        monkeypatch.setattr(bd, "shoot_pairs", fake_shoot)
        with pytest.raises(RandersError) as exc:
            bd.distance_matrix(euclid_spec, 3, threads=threads)
        assert f"{type(exc.value).__name__}: {exc.value}" == expected

    @pytest.mark.parametrize("medium,pair", [("lens_spec", (0, 5)),
                                             ("offcentre_lens_spec", (0, 4))])
    def test_real_lens_aborts_with_pair(self, request, medium, pair):
        from randers import NonAdmissibleError, solve_bvp

        spec = request.getfixturevalue(medium)
        i, j = pair
        with pytest.raises(NonAdmissibleError,
                           match=rf"^3 geodesic branches for boundary pair \({i}, {j}\);"):
            distance_matrix(spec, 12)
        # the named pair alone, through the one-pair solver
        points = sample_boundary(spec.domain, 12).points
        with pytest.raises(NonAdmissibleError, match="^3 geodesic branches connect"):
            solve_bvp(spec, points[i], points[j])


class TestExclusion:
    def test_nearly_adjacent_pairs_excluded(self, euclid_spec, dom):
        angles = np.array([0.0, 5e-4, math.pi / 2, math.pi])
        data = distance_matrix(euclid_spec, BoundarySamples(angles=angles, radius=1.0))
        assert data.diagnostics.excluded[0, 1] and data.diagnostics.excluded[1, 0]
        assert np.isnan(data.matrix[0, 1])
        assert not np.isnan(data.matrix[0, 2])


@pytest.fixture(scope="module", params=["wind_spec", "smooth_bump_spec"])
def forward_and_reversed(request):
    spec = request.getfixturevalue(request.param)
    return distance_matrix(spec, 6).matrix, distance_matrix(spec.reverse(), 6).matrix


class TestMetamorphic:
    def test_reversed_norm_transposes(self, forward_and_reversed):
        D, D_rev = forward_and_reversed
        assert np.abs(D_rev - D.T).max() <= 2e-8

    def test_triangle_inequality(self, forward_and_reversed):
        # a non-minimising branch would break D[i,k] <= D[i,j] + D[j,k]
        D, _ = forward_and_reversed
        n = len(D)
        slack = D[:, :, None] + D[None, :, :] - D[:, None, :]   # [i, j, k]
        i, j, k = np.meshgrid(*(np.arange(n),) * 3, indexing="ij")
        distinct = (i != j) & (j != k) & (i != k)
        assert slack[distinct].min() >= -1e-9


def _rotated_samples(n, delta):
    return BoundarySamples(angles=(2.0 * math.pi * np.arange(n) / n + delta) % (2.0 * math.pi),
                           radius=1.0)


@pytest.fixture(scope="module")
def bump6(smooth_bump_spec):
    return distance_matrix(smooth_bump_spec, 6).matrix


class TestRotationEquivariance:
    @settings(max_examples=5, deadline=None)
    @given(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    def test_rotation_invariant_medium(self, smooth_bump_spec, bump6, delta):
        # c = 2 - r^2 and the bump gauge are rotation invariant, so rotating
        # the samples must leave D unchanged
        D = distance_matrix(smooth_bump_spec, _rotated_samples(6, delta)).matrix
        assert np.abs(D - bump6).max() <= 2e-8

    def test_wind_rotates_with_samples(self, dom, wind_spec):
        delta = 2.0
        w = 0.5 * np.array([math.cos(delta), math.sin(delta)])
        turned = zermelo_construct(MediumModel(dom, speed=ConstantField(1.0), wind=ConstantForm(w)))
        D = distance_matrix(wind_spec, 6).matrix
        D_turned = distance_matrix(turned, _rotated_samples(6, delta)).matrix
        assert np.abs(D_turned - D).max() <= 2e-8
