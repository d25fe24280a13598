import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoblotto.blotto2 import BlottoParams, build_equilibrium
from infoblotto.distributions import InvalidDistributionError, PiecewiseCdf
from infoblotto.games import StrategyProfile


def cdf_of(f, xs):
    # the CDF P(X <= x) = below + at at each point of an array
    return np.array([below + at for below, at, _ in map(f.masses, np.ravel(xs).tolist())])


def mixed_example():
    # atom at 0 (0.3), uniform on [0, 2] (0.5), atom at 3 (0.2)
    return PiecewiseCdf(atoms=((0.0, 0.3), (3.0, 0.2)), segments=((0.0, 2.0, 0.25),))


class TestValidation:
    def test_mass_must_be_one(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(atoms=((1.0, 0.5),))

    def test_empty_rejected(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf()

    def test_negative_location(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(atoms=((-1.0, 1.0),))

    def test_unsorted_atoms(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(atoms=((2.0, 0.5), (1.0, 0.5)))

    def test_overlapping_segments(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(segments=((0.0, 1.0, 0.5), (0.5, 1.5, 0.5)))

    def test_atom_inside_segment_interior(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(atoms=((0.5, 0.5),), segments=((0.0, 1.0, 0.5),))

    def test_atom_at_segment_endpoint_allowed(self):
        f = PiecewiseCdf(atoms=((0.0, 0.4),), segments=((0.0, 1.0, 0.6),))
        assert f.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_zero_density_rejected(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(atoms=((0.0, 1.0),), segments=((0.0, 1.0, 0.0),))

    @pytest.mark.parametrize(
        "atoms,segments",
        [
            # an atom inside a segment, and two overlapping segments, at a
            # scale where an absolute 1e-12 slack covers the whole support
            (((5e-14, 0.5),), ((0.0, 1e-13, 5e12),)),
            ((), ((0.0, 2e-13, 2.5e12), (1e-13, 3e-13, 2.5e12))),
        ],
    )
    def test_structure_checked_at_small_scale(self, atoms, segments):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(atoms=atoms, segments=segments)

    def test_touching_accepted_at_small_scale(self):
        f = PiecewiseCdf(atoms=((1e-13, 0.5),), segments=((0.0, 1e-13, 5e12),))
        assert f.total_mass() == 1.0
        PiecewiseCdf(segments=((0.0, 1e-13, 5e12), (1e-13, 2e-13, 5e12)))

    @pytest.mark.parametrize(
        "atoms,segments",
        [
            (((float("nan"), 1.0),), ()),
            (((float("inf"), 1.0),), ()),
            ((), ((0.0, float("nan"), 1.0),)),
            (((0.0, 0.5),), ((1.0, float("inf"), 0.5),)),
            (((0.0, 0.5),), ((0.0, 1.0, float("nan")),)),
        ],
    )
    def test_non_finite_entries_rejected(self, atoms, segments):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(atoms=atoms, segments=segments)

    def test_doubled_density_rejected(self):
        # mass 2 is caught by the normalization invariant
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(segments=((0.0, 1.0, 2.0),))


class TestEvaluation:
    def test_cdf_steps_and_ramps(self):
        f = mixed_example()
        assert f.masses(-1.0) == (0.0, 0.0, 1.0)
        assert f.masses(0.0) == pytest.approx((0.0, 0.3, 0.7))
        assert f.masses(1.0) == pytest.approx((0.3 + 0.25, 0.0, 0.25 + 0.2))
        assert f.masses(2.5) == pytest.approx((0.8, 0.0, 0.2))
        assert f.masses(3.0) == pytest.approx((0.8, 0.2, 0.0))
        assert f.masses(4.0) == pytest.approx((1.0, 0.0, 0.0))
        below, at, above = f.masses(f.breakpoints()[-1])
        assert below + at == pytest.approx(1.0, abs=1e-12) and above == 0.0

    def test_mean(self):
        # 0*0.3 + 0.5*(mean 1) + 3*0.2
        assert mixed_example().mean() == pytest.approx(0.5 + 0.6)
        assert PiecewiseCdf.point(4.0).mean() == 4.0
        assert PiecewiseCdf.uniform(0.0, 2.0).mean() == pytest.approx(1.0)
        # mass times midpoint: the squares of the ends would overflow
        assert PiecewiseCdf.uniform(1e308, 1.6e308).mean() == pytest.approx(1.3e308, rel=1e-15)

    def test_support(self):
        f = mixed_example()
        assert f.breakpoints() == (0.0, 2.0, 3.0)
        # built once per marginal
        assert f.breakpoints() is f.breakpoints()


class TestPpf:
    def test_atoms_give_plateaus(self):
        f = mixed_example()
        assert f.ppf(0.1) == 0.0
        assert f.ppf(0.29) == 0.0
        assert f.ppf(0.9) == 3.0

    def test_segment_interpolation(self):
        f = mixed_example()
        # u = 0.3 + s maps to s / 0.25 inside [0, 2]
        assert f.ppf(0.425) == pytest.approx(0.5)
        assert f.ppf(0.55) == pytest.approx(1.0)

    def test_vectorized_and_monotone(self):
        f = mixed_example()
        us = np.linspace(0.0, 0.999999, 1001)
        xs = f.ppf(us)
        assert np.all(np.diff(xs) >= 0.0)
        assert np.all(cdf_of(f, xs) >= us - 1e-12)

    def test_scalar_in_float_out(self):
        f = mixed_example()
        assert type(f.ppf(0.425)) is float
        assert type(f.ppf(np.float64(0.9))) is float
        assert f.ppf(np.array([0.1, 0.9])).shape == (2,)

    def test_uniform_round_trip(self):
        f = PiecewiseCdf.uniform(1.0, 3.0)
        us = np.linspace(0.0, 0.999, 100)
        np.testing.assert_allclose(cdf_of(f, f.ppf(us)), us, atol=1e-12)


class TestTransforms:
    def test_reflect_atoms(self):
        f = PiecewiseCdf(atoms=((1.0, 0.25), (4.0, 0.75)))
        g = f.reflect(5.0)
        assert g.atoms == ((1.0, 0.75), (4.0, 0.25))

    def test_reflect_mean(self):
        f = mixed_example()
        assert f.reflect(10.0).mean() == pytest.approx(10.0 - f.mean())

    def test_reflect_involution(self):
        f = mixed_example()
        g = f.reflect(7.0).reflect(7.0)
        assert g.atoms == f.atoms
        assert g.segments == f.segments

    def test_reflect_validates_and_holds_floats(self):
        # the rows are not converted again, but the result is still checked
        with pytest.raises(InvalidDistributionError, match="outside"):
            PiecewiseCdf.point(0.75).reflect(0.7)
        g = mixed_example().reflect(5)
        assert g == PiecewiseCdf(atoms=g.atoms, segments=g.segments)
        assert all(type(v) is float for row in g.atoms + g.segments for v in row)


class TestSerialization:
    # _asdict writes a marginal's record and the constructor reads it back;
    # a strategy file's reader, StrategyProfile.from_dict, refuses with ValueError

    def test_round_trip_exact(self):
        f = mixed_example()
        data = json.loads(json.dumps(f._asdict()))
        assert list(data) == ["atoms", "segments"]
        assert isinstance(data["atoms"][0], list)
        g = PiecewiseCdf(**data)
        assert g == f
        assert StrategyProfile.from_dict({"informed": [[data]], "uninformed": [data]}) == (
            StrategyProfile(informed=((f,),), uninformed=(f,))
        )

    def test_bad_record(self):
        # an unknown key, or a record that is not a mapping
        for record in ({"atoms": [[0.0, 1.0]], "junk": []}, [[0.0, 1.0]], None, "atoms"):
            with pytest.raises(TypeError):
                PiecewiseCdf(**record)
            profile = {"informed": [[record]], "uninformed": [record]}
            with pytest.raises(ValueError, match="bad strategy profile record"):
                StrategyProfile.from_dict(profile)

    def test_malformed_mass(self):
        record = {"atoms": [[0.0, 0.7]], "segments": []}
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(**record)
        with pytest.raises(InvalidDistributionError):
            StrategyProfile.from_dict({"informed": [[record]], "uninformed": [record]})


@st.composite
def piecewise_cdfs(draw):
    # locations on a 0.01 lattice so segments are never degenerate
    n_atoms = draw(st.integers(0, 3))
    n_segs = draw(st.integers(0 if n_atoms else 1, 2))
    ticks = draw(
        st.lists(
            st.integers(0, 1000),
            min_size=n_atoms + 2 * n_segs,
            max_size=n_atoms + 2 * n_segs,
            unique=True,
        )
    )
    locs = [t * 0.01 for t in sorted(ticks)]
    # first 2*n_segs locations pair into disjoint segments, the rest are atoms
    seg_bounds = locs[: 2 * n_segs]
    atom_locs = locs[2 * n_segs :]
    weights = draw(
        st.lists(
            st.floats(0.1, 1.0, allow_nan=False),
            min_size=n_atoms + n_segs,
            max_size=n_atoms + n_segs,
        )
    )
    total = sum(weights)
    atoms = tuple((loc, w / total) for loc, w in zip(atom_locs, weights[:n_atoms]))
    segments = []
    for k in range(n_segs):
        left, right = seg_bounds[2 * k], seg_bounds[2 * k + 1]
        mass = weights[n_atoms + k] / total
        segments.append((left, right, mass / (right - left)))
    return PiecewiseCdf(atoms=atoms, segments=tuple(segments))


@settings(max_examples=60, deadline=None)
@given(piecewise_cdfs())
def test_random_distribution_invariants(f):
    assert abs(f.total_mass() - 1.0) <= 1e-9
    xs = np.linspace(-1.0, f.breakpoints()[-1] + 1.0, 257)
    cdf = cdf_of(f, xs)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    us = np.linspace(0.0, 0.999, 41)
    assert np.all(cdf_of(f, f.ppf(us)) >= us - 1e-9)


def component_loop_cdf(f, x, tie):
    # one numpy accumulation step per atom below x, per segment, then the
    # atom at x times tie: below (tie 0) and below + at (tie 1) in the order
    # that PiecewiseCdf.masses and a caller adding at must reproduce
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for loc, mass in f.atoms:
        out += mass * (x > loc)
    for l, r, rho in f.segments:
        out += rho * np.clip(x - l, 0.0, r - l)
    for loc, mass in f.atoms:
        out += tie * mass * (x == loc)
    return out


def component_loop_tail(f, x):
    # the same loop for the mass above x, atoms summed from the right
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for loc, mass in reversed(f.atoms):
        out += mass * (x < loc)
    for l, r, rho in f.segments:
        out += rho * np.clip(r - x, 0.0, r - l)
    return out


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(piecewise_cdfs(), st.just(mixed_example())),
    st.lists(st.floats(-1.0, 11.0, allow_nan=False), max_size=12),
)
def test_cdf_equals_component_loop(f, points):
    # every atom and segment endpoint, where the ties act, plus random points
    for x in [*f.breakpoints(), *points]:
        below, at, above = f.masses(x)
        assert below == component_loop_cdf(f, x, 0.0)
        assert below + at == component_loop_cdf(f, x, 1.0)
        assert above == component_loop_tail(f, x)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(piecewise_cdfs(), st.just(mixed_example())),
    st.lists(st.floats(-1.0, 11.0, allow_nan=False), max_size=12),
)
def test_sf_complements_cdf(f, points):
    # below, at and above partition the mass at every point
    for x in [*f.breakpoints(), *points]:
        below, at, above = f.masses(x)
        assert min(below, at, above) >= 0.0
        assert below + at + above == pytest.approx(1.0, abs=2e-12)


def test_sf_keeps_a_small_upper_tail():
    # 1 - below - at rounds a tail below 2^-53 to 0; above sums it from the right
    f = PiecewiseCdf(atoms=((0.0, 1.0), (1.0, 1e-20)), segments=((2.0, 3.0, 1e-20),))
    below, at, above = f.masses(0.5)
    assert 1.0 - below - at == 0.0 and above == 2e-20
    assert f.masses(1.0)[1:] == (1e-20, 1e-20)
    assert f.masses(2.5)[2] == 0.5e-20
    _, at, above = f.masses(0.0)
    assert above + 0.5 * at == 0.5 + 2e-20


def bisection_ppf(f):
    # the searchsorted + clamp inversion that PiecewiseCdf.ppf must reproduce
    # bit for bit, and the cumulative masses it searches
    comps = [(loc, loc, mass, 0.0) for loc, mass in f.atoms]
    comps += [(l, r, rho * (r - l), 1.0 / rho) for l, r, rho in f.segments]
    lows, _, masses, slopes = np.array(sorted(comps)).T
    cum_hi = np.cumsum(masses)
    cum_lo = cum_hi - masses

    def ppf(u):
        u = np.asarray(u, dtype=float)
        idx = np.minimum(np.searchsorted(cum_hi, u, side="right"), len(lows) - 1)
        return lows[idx] + (u - cum_lo[idx]) * slopes[idx]

    return ppf, cum_hi


def assert_ppf_is_bisection(f):
    ppf, cum_hi = bisection_ppf(f)
    # 0, every cumulative mass and the float just below it, and the top
    # range [total, 1) that rounding of the masses can leave uncovered
    us = [0.0, *cum_hi, *np.nextafter(cum_hi, 0.0)]
    if cum_hi[-1] < 1.0:
        us += np.linspace(cum_hi[-1], np.nextafter(1.0, 0.0), 5).tolist()
    us = np.array(us + np.random.default_rng(len(us)).random(7).tolist())
    for u in us.tolist():
        want = float(ppf(u)).hex()
        for given_u in (u, np.float64(u), np.array(u)):
            got = f.ppf(given_u)
            assert type(got) is float and got.hex() == want
    for shape in (us.shape, (1, -1), (-1, 1)):
        got = f.ppf(us.reshape(shape))
        assert got.shape == us.reshape(shape).shape
        assert got.tobytes() == ppf(us).tobytes()
    square = np.resize(us, (len(us), 3))
    assert f.ppf(square).tobytes() == ppf(square).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.one_of(piecewise_cdfs(), st.just(mixed_example())))
def test_ppf_equals_bisection(f):
    assert_ppf_is_bisection(f)


@pytest.mark.parametrize(
    "f",
    [
        # an atom at -0.0 samples as +0.0, as low + (u - below) * 0 gives it
        PiecewiseCdf(atoms=((-0.0, 0.25), (1.0, 0.75))),
        PiecewiseCdf(atoms=((-0.0, 0.4),), segments=((1.0, 2.0, 0.6),)),
        # one component: no count
        PiecewiseCdf.point(-0.0),
        PiecewiseCdf.point(2.5),
        PiecewiseCdf.uniform(-0.0, 1.0),
        PiecewiseCdf.uniform(0.5, 3.0),
        # atoms only, past what a uint8 counts
        PiecewiseCdf(atoms=tuple((0.5 * k, 1.0 / 300) for k in range(300))),
    ],
)
def test_ppf_equals_bisection_on_edge_tables(f):
    assert_ppf_is_bisection(f)


@pytest.mark.parametrize(
    "vlow,gamma",
    # geometric lattice masses: vbar/vlow = 20 leaves masses of 20^-16 at the
    # ends of a q = 33 lattice; q = 1999 has more components than a uint8
    # counts, so ppf bisects there
    [(0.05, 0.7), (0.05, 1.0 - 1.0 / 33.5), (0.5, 1.0 - 1.0 / 33.5), (0.99, 1.0 - 1.0 / 1999.5)],
)
def test_ppf_equals_bisection_on_blotto_lattices(vlow, gamma):
    params = BlottoParams.from_ratio(1.0, vlow, gamma)
    profile = build_equilibrium(params)
    marginals = [f for row in (*profile.informed, profile.uninformed) for f in row]
    if gamma > 0.999:
        assert max(len(f.atoms) for f in marginals) > 255
    for f in marginals:
        assert_ppf_is_bisection(f)
