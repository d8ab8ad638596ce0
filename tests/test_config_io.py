"""Config parsing/serialization and binary snapshot round trips.

The format contracts pinned here: INI sections/keys are a closed set,
parse -> serialize -> parse is the identity, snapshots are little-endian
with a 25-byte header, and writing the same state twice is byte-identical.
"""

import re
import subprocess
import sys
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import mhbl
from mhbl import (ConfigError, SnapshotFormatError, State, make_grid,
                  sample_outflow)
from mhbl.config import (
    _DEFAULTS,
    _SAFE_FUNCS,
    _SCHEMA,
    RunConfig,
    compile_expression,
    parse_config,
    serialize_config,
)
from mhbl.picard import IterateRecord, IterationReport
from mhbl.snapshots import (
    _HEADER,
    emit_plot_data,
    read_snapshot,
    write_snapshot,
)
from mhbl.stepper import Trajectory
from mhbl.transform import PhysicalState

GOOD = """\
[physics]
mu = 0.1
kappa = 0.1
nu = 0.1
R = 1.0
cV = 1.0
delta = 0.05

[grid]
nx = 16
neta = 32
eta_max = 8.0
dt = 0.01
t_end = 0.05

[outflow]
U = 0.0
Theta = 1.0
H = 1.0
P = 1.5
theta_star = 1.0

[initial]
u1_0 = 0.1*y*exp(-y*y)
theta0 = 1.0 + 0.0*x
h1_0 = 1.0 + 0.5*tanh(y)
y_max = 10.0
ny = 64
"""


# ---------------------------------------------------------------------------
# config

def test_parse_builds_typed_inputs_and_fills_defaults():
    cfg = parse_config(GOOD)
    params = cfg.make_params()
    assert params.mu == 0.1 and params.delta == 0.05
    grid = cfg.make_grid()
    assert (grid.nx, grid.neta) == (16, 32)
    spec = cfg.outflow_spec()
    assert (spec.U, spec.Theta, spec.Hfield, spec.P, spec.theta_star) \
        == (0.0, 1.0, 1.0, 1.5, 1.0)
    u1_0, theta0, h1_0 = cfg.initial_profiles()
    y = np.linspace(0.0, 2.0, 5)
    np.testing.assert_allclose(h1_0(0.0, y), 1.0 + 0.5 * np.tanh(y))
    # defaulted sections
    assert cfg.getfloat("picard", "tol") == 1e-8
    assert cfg.getint("picard", "max_iter") == 30
    assert set(cfg.values["picard"]) == {"tol", "max_iter"}
    assert cfg.get("output", "dir") == "out"
    assert cfg.getbool("output", "emit_plots") is False


def test_parse_serialize_round_trip_is_identity():
    cfg = parse_config(GOOD)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again.values == cfg.values
    # canonical form is a fixpoint
    assert serialize_config(again) == text


def numbers(lo, hi):
    return st.floats(lo, hi).flatmap(
        lambda v: st.sampled_from([repr(v), f"{v:.6e}"]))


def expressions(variables):
    leaves = st.one_of(st.sampled_from(variables + ("pi",)),
                       st.integers(0, 99).map(str), numbers(0.0, 10.0))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "**"]),
                  inner).map(" ".join),
        st.tuples(st.sampled_from(["sin", "exp", "tanh", "sqrt"]),
                  inner).map(lambda p: f"{p[0]}({p[1]})"),
        inner.map(lambda e: f"-({e})")), max_leaves=6)


#: a valid value per (section, key) or per kind; [grid] t_end and the
#: outflow traces depend on other keys and are drawn in config_texts
VALUES = {
    ("grid", "nx"): st.integers(4, 512).map(str),
    ("grid", "neta"): st.integers(8, 512).map(str),
    ("initial", "ny"): st.integers(4, 4096).map(str),
    ("picard", "tol"): numbers(0.0, 1.0),
    ("picard", "max_iter"): st.integers(1, 1000).map(str),
    ("output", "dir"): st.text("abxyz09_-./", min_size=1, max_size=12),
    ("output", "snapshot_every"): st.integers(1, 100).map(str),
    "float": numbers(1e-3, 1e3),
    "bool": st.sampled_from(["true", "False", "YES", "no", "on", "OFF", "1",
                             "0"]),
}


def _outflow_value(text: str) -> bool:
    """Whether the parser takes text as an outflow trace: it names t or xi,
    or it evaluates to a finite number."""
    if {"t", "xi"} & set(re.findall(r"\w+", text)):
        return True
    try:
        return bool(np.isfinite(compile_expression(text, ("t", "xi"))(0.0, 0.0)))
    except ConfigError:
        return False


EXPRESSIONS = {"initial": expressions(("x", "y")),
               "outflow": expressions(("t", "xi")).filter(_outflow_value)}
CONSTANT_TRACE = numbers(-1e3, 1e3)
COMMENTS = st.sampled_from(["", "  # note", "\t; why"])


@st.composite
def config_texts(draw):
    """INI text with a valid value for every _SCHEMA key, in sections of any
    order; a key with a default may be left out."""
    dt = draw(st.floats(1e-4, 1.0))
    sections = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key, kind in keys.items():
            if key in _DEFAULTS.get(section, {}) and draw(st.booleans()):
                continue
            if key in ("dt", "t_end"):
                value = repr(dt * draw(st.integers(1, 50))
                             if key == "t_end" else dt)
            elif section == "outflow":
                value = draw(st.one_of(EXPRESSIONS[section], CONSTANT_TRACE))
            elif kind == "expr":
                value = draw(EXPRESSIONS[section])
            else:
                value = draw(VALUES[section, key] if (section, key) in VALUES
                             else VALUES[kind])
            lines.append(f"{key} = {value}{draw(COMMENTS)}")
        sections.append("\n".join(lines))
    return "\n\n".join(draw(st.permutations(sections))) + "\n"


@settings(derandomize=True, database=None, deadline=None)
@given(config_texts())
def test_parse_serialize_is_idempotent_on_generated_configs(text):
    cfg = parse_config(text)
    canonical = serialize_config(cfg)
    again = parse_config(canonical)
    assert again.values == cfg.values
    assert serialize_config(again) == canonical


def test_inline_comments_are_stripped():
    cfg = parse_config(GOOD.replace("nx = 16", "nx = 16  # tangential nodes"))
    assert cfg.get("grid", "nx") == "16"


@pytest.mark.parametrize("mutation,needle", [
    (("[grid]", "[lattice]"), "unknown section"),
    (("nx = 16", "nx = 16\nn_x = 8"), "unknown key"),
    (("nx = 16", "nx = sixteen"), "not an integer"),
    (("U = 0.0", "U = 0.0\nmode = constant"), "unknown key 'mode'"),
    (("ny = 64", "ny = 3"), "ny"),
    (("y_max = 10.0", "y_max = -1.0"), "y_max"),
])
def test_malformed_configs_rejected(mutation, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(GOOD.replace(*mutation))


@settings(derandomize=True, database=None, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda v: st.sampled_from([repr(v), f"{v:.6e}"])))
@example("5e-324")
@example("-0.0")
@example("1.7976931348623157e+308")
def test_a_number_is_an_expression_of_its_own_value(text):
    # a trace naming neither t nor xi is evaluated once: a written number
    # comes back with the bits float() gives it
    spec = parse_config(GOOD.replace("U = 0.0", f"U = {text}")).outflow_spec()
    assert type(spec.U) is float
    assert spec.U.hex() == float(text).hex()


@pytest.mark.parametrize("value", ["abc", "nan", "1 +", "xi.real", "1/0",
                                   "(-1.0)**0.5"])
def test_bad_outflow_value_names_its_key(value):
    with pytest.raises(ConfigError, match=r"\(in \[outflow\] U\)$"):
        parse_config(GOOD.replace("U = 0.0", f"U = {value}"))


def test_missing_required_section_and_key():
    text = GOOD.replace("[initial]", "[physics]").replace("u1_0", "mu")
    with pytest.raises(ConfigError):
        parse_config(text)
    with pytest.raises(ConfigError, match="missing key"):
        parse_config(GOOD.replace("P = 1.5\n", ""))


def test_picard_and_output_values_validated():
    # abort is the one policy, so there is no key to choose it: "continue"
    # marched on with clamped coefficients and reported convergence outside
    # the admissible set
    for value in ("explode", "continue", "abort"):
        bad = GOOD + f"\n[picard]\non_admissibility_loss = {value}\n"
        with pytest.raises(ConfigError, match="unknown key "
                                              "'on_admissibility_loss'"):
            parse_config(bad)
    bad = GOOD + "\n[output]\nemit_plots = maybe\n"
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(bad)


def test_expressions_mode_outflow():
    text = GOOD.replace("P = 1.5", "P = 1.5 + 0.1*sin(xi)*exp(-t)")
    cfg = parse_config(text)
    spec = cfg.outflow_spec()
    # an expression naming neither t nor xi is its number
    assert [spec.U, spec.Theta, spec.Hfield, spec.theta_star] == [0.0, 1.0,
                                                                1.0, 1.0]
    assert callable(spec.P)
    xi = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    np.testing.assert_allclose(spec.P(0.0, xi), 1.5 + 0.1 * np.sin(xi))


def test_constant_outflow_expression_gets_exact_zero_derivatives():
    # differencing the samples of P = 0.1 + 2.0 left rounding noise in P_t
    # at the one-sided ends, where the number 2.1 gives exact zeros
    text = GOOD.replace("P = 1.5", "P = 0.1 + 2.0")
    cfg = parse_config(text)
    spec = cfg.outflow_spec()
    assert type(spec.P) is float and spec.P == 2.1
    data = sample_outflow(spec, cfg.make_grid())
    assert not data.P_t.any() and not data.P_xi.any()
    np.testing.assert_array_equal(data.P, 2.1)
    # an expression in t or xi stays a callable, and is differenced
    spec = parse_config(text.replace("0.1 + 2.0", "2.1 - t")).outflow_spec()
    assert callable(spec.P)
    spec = parse_config(text.replace("0.1 + 2.0",
                                     "2.1 + 0.1*cos(xi)")).outflow_spec()
    assert callable(spec.P)
    assert sample_outflow(spec, cfg.make_grid()).P_xi.any()


def test_expression_compile_rejects_non_whitelisted_names():
    with pytest.raises(ConfigError, match="unknown name"):
        compile_expression("__import__('os').system('true')", ("t", "xi"))
    with pytest.raises(ConfigError, match="unknown name"):
        compile_expression("open('/etc/passwd')", ("t", "xi"))
    with pytest.raises(ConfigError, match="unknown name"):
        compile_expression("z + 1", ("t", "xi"))
    with pytest.raises(ConfigError, match="bad expression"):
        compile_expression("1.0 +* 2", ("t", "xi"))


@pytest.mark.parametrize("text", [
    "(lambda: ().__class__.__bases__[0].__name__)()",   # names hide in a lambda
    "[sin(t) for t in (1.0, 2.0)][0]",                   # comprehension
    "xi.__class__",                                      # attribute
    "(1.0, 2.0)[0]",                                     # subscript
    "t(1.0)",                                            # call of a variable
    "sin(t, out=t)",                                     # keyword argument
    "sin(t, xi)",                            # a second argument is the output
    "sin + t",                                           # function as a value
    "'text'",                                            # non-number constant
])
def test_expression_compile_rejects_non_arithmetic_syntax(text):
    with pytest.raises(ConfigError, match="disallowed syntax"):
        compile_expression(text, ("t", "xi"))


FUNCTIONS = [name for name, value in _SAFE_FUNCS.items() if callable(value)]

#: Expression texts built from the accepted nodes only: the variables x and
#: y, pi and number literals (negative and fractional ones, so that powers
#: of negative bases come up) under the arithmetic operators and
#: one-argument calls of the safe functions.
ACCEPTED = st.recursive(
    st.one_of(st.sampled_from(["x", "y", "pi", "0", "2", "-1.0", "0.5", "1e308"]),
              st.floats(-10.0, 10.0).map(repr)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", "//", "%", "**"]),
                  inner).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(st.sampled_from(["-", "+"]), inner).map("".join),
        st.tuples(st.sampled_from(FUNCTIONS), inner).map(
            lambda t: f"{t[0]}({t[1]})")),
    max_leaves=8)

#: Wrappers that put one rejected node around an accepted expression.
REJECTED = st.sampled_from([
    "({}).real", "({})[0]", "(lambda: {})()", "[{} for x in (1.0, 2.0)][0]",
    "z + ({})", "__import__ + ({})", "sin + ({})", "sin({}, x)", "x({})",
])


@settings(derandomize=True, database=None, deadline=None)
@example("2.0 + (-1.0)**0.5 + 0*x")   # complex array
@example("2.0 + (-1.0)**0.5")         # complex scalar
@given(ACCEPTED)
def test_accepted_expressions_evaluate_to_real_arrays_or_config_error(text):
    # an accepted expression yields a float64 array of the broadcast shape,
    # NaN and inf included, or fails with ConfigError; nothing else escapes,
    # not even a RuntimeWarning (an error under this suite's settings)
    fn = compile_expression(text, ("x", "y"))
    x = np.linspace(-2.0, 2.0, 3)[:, None]
    y = np.linspace(0.0, 3.0, 4)[None, :]
    try:
        out = fn(x, y)
    except ConfigError as exc:
        assert str(exc).startswith(f"expression {text!r} failed: ")
        return
    assert isinstance(out, np.ndarray)
    assert out.dtype == np.float64 and out.shape == (3, 4)


@settings(derandomize=True, database=None, deadline=None)
@given(ACCEPTED, REJECTED, ACCEPTED)
def test_rejected_nodes_fail_at_compile_time(inner, wrapper, outer):
    text = f"({outer}) + ({wrapper.format(inner)})"
    with pytest.raises(ConfigError, match="unknown name|disallowed syntax"):
        compile_expression(text, ("x", "y"))


def test_expression_broadcasts_scalars_against_arrays():
    # the result takes the common broadcast shape of all array arguments
    fn = compile_expression("2.0 + 0.0*x", ("x", "y"))
    out = fn(np.ones((3, 1)), np.zeros((3, 4)))
    assert out.shape == (3, 4)
    np.testing.assert_allclose(out, 2.0)
    fn2 = compile_expression("pi", ("t", "xi"))
    out2 = fn2(0.0, np.zeros(5))
    assert out2.shape == (5,)
    np.testing.assert_allclose(out2, np.pi)


def test_expression_literals_are_floats():
    assert type(compile_expression("2**3 // 1", ())()) is float
    # as ints, 9**9**9 would be computed digit by digit; a child process
    # with a timeout keeps a regression from hanging the suite
    done = subprocess.run(
        [sys.executable, "-c",
         "from mhbl.config import compile_expression\n"
         "compile_expression('9**9**9', ())()"],
        env={"PYTHONPATH": str(Path(mhbl.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=30)
    assert "ConfigError: expression '9**9**9' failed" in done.stderr


# ---------------------------------------------------------------------------
# snapshots

def sample_state(rng, nx=6, neta=9, time=0.25):
    return State(u1=rng.standard_normal((nx, neta)),
                 theta=1.0 + rng.random((nx, neta)),
                 q=0.5 + 0.1 * rng.random((nx, neta)), time=time)


def sample_physical(rng, nx=6, ny=7, time=0.5):
    shape = (nx, ny)
    return PhysicalState(rho=1.0 + rng.random(shape),
                         u1=rng.standard_normal(shape),
                         u2=rng.standard_normal(shape),
                         theta=1.0 + rng.random(shape),
                         h1=1.0 + rng.random(shape),
                         h2=rng.standard_normal(shape),
                         y_nodes=np.linspace(0.0, 3.0, ny), time=time)


#: bit patterns of +0.0, -0.0, +inf, -inf, quiet NaNs of both signs, a quiet
#: NaN with a payload, a signalling NaN, the smallest subnormal and the
#: largest finite double
SPECIAL_BITS = (0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                0x7FF8DEADBEEF0001, 0x7FF0000000000001, 0x0000000000000001,
                0x7FEFFFFFFFFFFFFF)
DOUBLE_BITS = st.one_of(st.sampled_from(SPECIAL_BITS),
                        st.integers(0, 2 ** 64 - 1))


@st.composite
def snapshot_bits(draw):
    """(u1, theta, q) as uint64 bit patterns of one random (nx, neta) shape,
    and the bits of the time."""
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 9)))
    fields = tuple(draw(hnp.arrays(np.uint64, shape, elements=DOUBLE_BITS))
                   for _ in range(3))
    return fields, draw(DOUBLE_BITS)


@settings(derandomize=True, database=None, deadline=None)
@given(snapshot_bits())
@example(((np.array([SPECIAL_BITS[:5], SPECIAL_BITS[5:]], dtype=np.uint64),)
          * 3, 0x3FD0000000000000))
def test_transformed_snapshot_round_trip_bit_exact(tmp_path_factory, case):
    # every double survives, bit for bit: NaN payloads, signs and -0.0 too
    fields, time_bits = case
    state = State(*(f.view(np.float64) for f in fields),
                  time=np.uint64(time_bits).view(np.float64))
    path = tmp_path_factory.mktemp("snap") / "state.snap"
    write_snapshot(state, str(path))
    snap = read_snapshot(str(path))
    assert snap.kind == "transformed"
    assert (snap.nx, snap.n2) == fields[0].shape
    assert np.float64(snap.time).view(np.uint64) == time_bits
    for name, bits in zip(("u1", "theta", "q"), fields):
        assert np.array_equal(snap.fields[name].view(np.uint64), bits)


def test_physical_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    ps = sample_physical(rng)
    path = tmp_path / "phys.snap"
    write_snapshot(ps, str(path))
    snap = read_snapshot(str(path))
    assert snap.kind == "physical"
    assert set(snap.fields) == {"rho", "u1", "u2", "theta", "h1", "h2"}
    for name in snap.fields:
        assert snap.fields[name].tobytes() == getattr(ps, name).tobytes()


@pytest.mark.parametrize("shapes", [
    {"u1": (3, 2)},
    dict.fromkeys(("rho", "u1", "u2", "theta", "h1", "h2"), (6,)),
])
def test_snapshot_refuses_fields_off_one_shape(tmp_path, shapes):
    # a (3, 2) u1 beside (2, 3) fields once wrote a file that read back with
    # u1 reshaped to (2, 3); 1-d fields died in a bare ValueError
    ps = sample_physical(np.random.default_rng(3), nx=2, ny=3)
    for name, shape in shapes.items():   # past PhysicalState's own check
        object.__setattr__(ps, name, np.zeros(shape))
    path = tmp_path / "bad.snap"
    with pytest.raises(SnapshotFormatError, match="one 2-d shape"):
        write_snapshot(ps, str(path))
    assert not path.exists()


def test_snapshot_fields_are_read_only_and_adopted(tmp_path):
    rng = np.random.default_rng(16)
    path = tmp_path / "s.snap"
    write_snapshot(sample_state(rng), str(path))
    snap = read_snapshot(str(path))
    for f in snap.fields.values():
        assert not f.flags.writeable and f.base is None
    st = State(**snap.fields, time=snap.time)
    assert all(getattr(st, n) is snap.fields[n] for n in ("u1", "theta", "q"))

    write_snapshot(sample_physical(rng), str(path))
    snap = read_snapshot(str(path))
    ps = PhysicalState(**snap.fields, y_nodes=np.arange(snap.n2, dtype=float),
                       time=snap.time)
    assert all(getattr(ps, n) is f for n, f in snap.fields.items())


def test_snapshot_writes_are_deterministic(tmp_path):
    rng = np.random.default_rng(13)
    st = sample_state(rng)
    p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
    write_snapshot(st, str(p1))
    write_snapshot(st, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_snapshot_header_layout(tmp_path):
    assert _HEADER.size == 25
    rng = np.random.default_rng(14)
    st = sample_state(rng, nx=4, neta=5)
    path = tmp_path / "s.snap"
    write_snapshot(st, str(path))
    raw = path.read_bytes()
    assert len(raw) == 25 + 3 * 8 * 4 * 5
    assert raw[:4] == b"MHBL"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:12], "little") == 4
    assert int.from_bytes(raw[12:16], "little") == 5
    assert raw[24] == 1


def test_snapshot_rejects_corruption(tmp_path):
    rng = np.random.default_rng(15)
    path = tmp_path / "c.snap"
    write_snapshot(sample_state(rng), str(path))
    raw = bytearray(path.read_bytes())

    def rewrite(mutate):
        bad = bytearray(raw)
        mutate(bad)
        path.write_bytes(bytes(bad))
        with pytest.raises(SnapshotFormatError):
            read_snapshot(str(path))

    rewrite(lambda b: b.__setitem__(slice(0, 4), b"XXXX"))         # magic
    rewrite(lambda b: b.__setitem__(slice(4, 8), (99).to_bytes(4, "little")))
    rewrite(lambda b: b.__setitem__(24, 7))                        # tag
    path.write_bytes(bytes(raw[:10]))                              # header cut
    with pytest.raises(SnapshotFormatError, match="truncated"):
        read_snapshot(str(path))
    path.write_bytes(bytes(raw[:-8]))                              # payload cut
    with pytest.raises(SnapshotFormatError, match="truncation"):
        read_snapshot(str(path))


def test_snapshot_cut_after_the_size_check_is_truncation(tmp_path,
                                                         monkeypatch):
    # a file that shrinks between the size check and the field reads must
    # not hand back uninitialized memory as a field
    import os
    from types import SimpleNamespace

    rng = np.random.default_rng(17)
    path = tmp_path / "c.snap"
    write_snapshot(sample_state(rng), str(path))
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=full))
    with pytest.raises(SnapshotFormatError, match="truncation"):
        read_snapshot(str(path))


def test_snapshot_rejects_unknown_objects(tmp_path):
    with pytest.raises(SnapshotFormatError):
        write_snapshot({"u1": np.zeros((2, 2))}, str(tmp_path / "x.snap"))


# ---------------------------------------------------------------------------
# plot data

def test_trajectory_plot_files(tmp_path):
    grid = make_grid(6, 9, 4.0, 0.1, 0.3)
    data = np.zeros((grid.nsteps + 1, 6, 9, 3))
    data[..., 1] = 1.0
    traj = Trajectory(data=data, times=grid.times.copy())
    files = emit_plot_data(traj, str(tmp_path), grid=grid)
    names = {f.split("/")[-1] for f in files}
    assert names == {"profile_u1.csv", "profile_theta.csv", "profile_q.csv",
                     "plots.gp"}
    lines = (tmp_path / "profile_theta.csv").read_text().strip().splitlines()
    assert lines[0].startswith("eta,t=0")
    assert len(lines) == 1 + 9
    with pytest.raises(SnapshotFormatError):
        emit_plot_data(traj, str(tmp_path), grid=None)


def test_iteration_report_plot_file(tmp_path):
    rep = IterationReport(converged=True, iterates=[
        IterateRecord(distance=d, admissible=True, norm=0.1, margin=0.2,
                      min_Q=1.0, first_violation=None)
        for d in (None, 0.1, 0.04, 0.01)])
    files = emit_plot_data(rep, str(tmp_path))
    text = (tmp_path / "iterations.csv").read_text().splitlines()
    assert text[0] == "iteration,distance,ratio,admissible,norm,margin,min_Q"
    assert len(text) == 4
    assert text[1].startswith("1,1.0")


def test_unplottable_object_rejected(tmp_path):
    with pytest.raises(SnapshotFormatError):
        emit_plot_data(object(), str(tmp_path))
