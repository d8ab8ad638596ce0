"""Config parsing/serialization and binary snapshot round trips.

The format contracts pinned here: INI sections/keys are a closed set,
parse -> serialize -> parse is the identity, snapshots are little-endian
with a 25-byte header, and writing the same state twice is byte-identical.
"""

import numpy as np
import pytest

from mhbl import ConfigError, SnapshotFormatError, State, make_grid
from mhbl.config import (
    RunConfig,
    compile_expression,
    parse_config,
    serialize_config,
)
from mhbl.picard import IterationReport
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
mode = constant
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
    assert spec.mode == "constant"
    u1_0, theta0, h1_0 = cfg.initial_profiles()
    y = np.linspace(0.0, 2.0, 5)
    np.testing.assert_allclose(h1_0(0.0, y), 1.0 + 0.5 * np.tanh(y))
    # defaulted sections
    assert cfg.getfloat("picard", "tol") == 1e-8
    assert cfg.getint("picard", "max_iter") == 30
    assert cfg.get("picard", "on_admissibility_loss") == "abort"
    assert cfg.get("output", "dir") == "out"
    assert cfg.getbool("output", "emit_plots") is False


def test_parse_serialize_round_trip_is_identity():
    cfg = parse_config(GOOD)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again.values == cfg.values
    # canonical form is a fixpoint
    assert serialize_config(again) == text


def test_inline_comments_are_stripped():
    cfg = parse_config(GOOD.replace("nx = 16", "nx = 16  # tangential nodes"))
    assert cfg.get("grid", "nx") == "16"


@pytest.mark.parametrize("mutation,needle", [
    (("[grid]", "[lattice]"), "unknown section"),
    (("nx = 16", "nx = 16\nn_x = 8"), "unknown key"),
    (("nx = 16", "nx = sixteen"), "not an integer"),
    (("mode = constant", "mode = wavy"), "mode"),
    (("ny = 64", "ny = 3"), "ny"),
    (("y_max = 10.0", "y_max = -1.0"), "y_max"),
])
def test_malformed_configs_rejected(mutation, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(GOOD.replace(*mutation))


def test_missing_required_section_and_key():
    text = GOOD.replace("[initial]", "[physics]").replace("u1_0", "mu")
    with pytest.raises(ConfigError):
        parse_config(text)
    with pytest.raises(ConfigError, match="missing key"):
        parse_config(GOOD.replace("P = 1.5\n", ""))


def test_picard_and_output_values_validated():
    bad = GOOD + "\n[picard]\non_admissibility_loss = explode\n"
    with pytest.raises(ConfigError, match="on_admissibility_loss"):
        parse_config(bad)
    bad = GOOD + "\n[output]\nemit_plots = maybe\n"
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(bad)


def test_expressions_mode_outflow():
    text = GOOD.replace("mode = constant", "mode = expressions") \
               .replace("P = 1.5", "P = 1.5 + 0.1*sin(xi)*exp(-t)")
    cfg = parse_config(text)
    spec = cfg.outflow_spec()
    assert spec.mode == "functions"
    xi = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    np.testing.assert_allclose(spec.P(0.0, xi), 1.5 + 0.1 * np.sin(xi))


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
    "'text'",                                            # non-number constant
])
def test_expression_compile_rejects_non_arithmetic_syntax(text):
    with pytest.raises(ConfigError, match="disallowed syntax"):
        compile_expression(text, ("t", "xi"))


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


def test_transformed_snapshot_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    st = sample_state(rng)
    path = tmp_path / "state.snap"
    write_snapshot(st, str(path))
    snap = read_snapshot(str(path))
    assert snap.kind == "transformed"
    assert (snap.nx, snap.n2) == (6, 9)
    assert snap.time == 0.25
    for name in ("u1", "theta", "q"):
        assert snap.fields[name].tobytes() == getattr(st, name).tobytes()


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
    rep = IterationReport(converged=True, iterations=3,
                          distances=[0.1, 0.04, 0.01],
                          ratios=[0.4, 0.25],
                          admissible=[True, True, True, True],
                          norm_history=[0.0, 0.1, 0.1, 0.1])
    files = emit_plot_data(rep, str(tmp_path))
    text = (tmp_path / "iterations.csv").read_text().splitlines()
    assert text[0] == "iteration,distance,ratio,admissible"
    assert len(text) == 4
    assert text[1].startswith("1,1.0")


def test_unplottable_object_rejected(tmp_path):
    with pytest.raises(SnapshotFormatError):
        emit_plot_data(object(), str(tmp_path))
