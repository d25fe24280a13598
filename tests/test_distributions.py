import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoblotto.distributions import InvalidDistributionError, PiecewiseCdf


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

    def test_doubled_density_rejected(self):
        # mass 2 is caught by the normalization invariant
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf(segments=((0.0, 1.0, 2.0),))


class TestEvaluation:
    def test_cdf_steps_and_ramps(self):
        f = mixed_example()
        assert f.cdf(-1.0) == 0.0
        assert f.cdf(0.0) == pytest.approx(0.3)
        assert f.cdf(0.0, tie=0.0) == 0.0
        assert f.cdf(0.0, tie=0.5) == pytest.approx(0.15)
        assert f.cdf(1.0) == pytest.approx(0.3 + 0.25)
        assert f.cdf(2.5) == pytest.approx(0.8)
        assert f.cdf(3.0, tie=0.0) == pytest.approx(0.8)
        assert f.cdf(3.0) == pytest.approx(1.0)
        assert f.cdf(f.support_max()) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_vectorized(self):
        f = mixed_example()
        xs = np.array([-1.0, 0.0, 1.0, 3.0, 4.0])
        np.testing.assert_allclose(f.cdf(xs), [0.0, 0.3, 0.55, 1.0, 1.0])

    def test_mean(self):
        # 0*0.3 + 0.5*(mean 1) + 3*0.2
        assert mixed_example().mean() == pytest.approx(0.5 + 0.6)
        assert PiecewiseCdf.point(4.0).mean() == 4.0
        assert PiecewiseCdf.uniform(0.0, 2.0).mean() == pytest.approx(1.0)

    def test_support(self):
        f = mixed_example()
        assert f.support_min() == 0.0
        assert f.support_max() == 3.0
        assert f.breakpoints() == [0.0, 2.0, 3.0]


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
        assert np.all(f.cdf(xs) >= us - 1e-12)

    def test_scalar_in_float_out(self):
        f = mixed_example()
        assert type(f.ppf(0.425)) is float
        assert type(f.ppf(np.float64(0.9))) is float
        assert f.ppf(np.array([0.1, 0.9])).shape == (2,)

    def test_uniform_round_trip(self):
        f = PiecewiseCdf.uniform(1.0, 3.0)
        us = np.linspace(0.0, 0.999, 100)
        np.testing.assert_allclose(f.cdf(f.ppf(us)), us, atol=1e-12)


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


class TestSerialization:
    def test_round_trip_exact(self):
        f = mixed_example()
        data = json.loads(json.dumps(f.to_dict()))
        g = PiecewiseCdf.from_dict(data)
        assert g == f

    def test_bad_record(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf.from_dict({"atoms": [[0.0, 1.0]], "junk": []})

    def test_malformed_mass(self):
        with pytest.raises(InvalidDistributionError):
            PiecewiseCdf.from_dict({"atoms": [[0.0, 0.7]], "segments": []})


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
    xs = np.linspace(-1.0, f.support_max() + 1.0, 257)
    cdf = f.cdf(xs)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    us = np.linspace(0.0, 0.999, 41)
    assert np.all(f.cdf(f.ppf(us)) >= us - 1e-9)
