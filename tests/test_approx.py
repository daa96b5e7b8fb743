import math
from fractions import Fraction as F
from random import Random

import pytest

from famkit.approx import approx_uniform, approx_uniform_small, approx_with_integrals, uap_witness
from famkit.boolalg import Algebra, GroundSet, Partition, SetElem, generate_algebra
from famkit.errors import BlockedCellError, DegenerateFamError, InputError
from famkit.fam import Fam, point_mass, uniform_fam

from genutil import random_fam, random_partition

def elem(ground, *indices):
    return SetElem.from_indices(ground, indices)


class TestApproxUniform:
    def test_single_point_ground(self):
        g = GroundSet.of_size(1)
        fam = Fam(Algebra.trivial(g), [1])
        out = approx_uniform(fam, Partition.coarsest(fam.algebra), F(1, 2))
        assert out.u.size == 1
        assert out.mu[0] == 1

    def test_whole_space_cell_zero_error(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        out = approx_uniform(fam, Partition(fam.algebra, [SetElem.full(g)]), F(1, 2))
        assert out.mass(SetElem.full(g)) == 1
        assert out.u.size <= 2

    def test_paper_rounding_recursion(self):
        # two half cells at eps = 1/4: c = 4, two points per cell, exact halves
        g = GroundSet.of_size(10)
        fam = uniform_fam(g, SetElem.full(g))
        cells = [elem(g, 0, 1, 2, 3, 4), elem(g, 5, 6, 7, 8, 9)]
        out = approx_uniform(fam, Partition(fam.algebra, cells), F(1, 4))
        assert out.u.size == 4
        assert out.uniform
        for cell in cells:
            assert out.mass(cell) == F(1, 2)
        assert out.u.indices() == (0, 1, 5, 6)

    def test_crowded_cells_keep_exact_mass(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0)])
        fam = Fam(alg, {elem(g, 0): F(1, 3), elem(g, 1, 2, 3): F(2, 3)})
        partition = Partition.of_atoms(alg)
        out = approx_uniform(fam, partition, F(1, 10))
        assert 0 in out.u
        assert out.mu[0] == F(1, 3)
        assert out.mass(elem(g, 1, 2, 3)) == F(2, 3)

    def test_zero_measure_cells_avoided(self):
        g = GroundSet.of_size(6)
        fam = uniform_fam(g, elem(g, 0, 1))
        cells = [elem(g, 0, 1), elem(g, 2, 3), elem(g, 4, 5)]
        alg = generate_algebra(g, cells)
        fam = Fam(alg, {elem(g, 0, 1): 1})
        out = approx_uniform(fam, Partition(alg, cells), F(1, 3))
        assert out.u <= elem(g, 0, 1)

    def test_avoid_respected_when_room(self):
        g = GroundSet.of_size(8)
        fam = uniform_fam(g, SetElem.full(g))
        cells = [elem(g, 0, 1, 2, 3), elem(g, 4, 5, 6, 7)]
        out = approx_uniform(fam, Partition(fam.algebra, cells), F(1, 4), avoid=elem(g, 0, 4))
        assert out.u.disjoint(elem(g, 0, 4))

    def test_blocked_cell_error(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0)])
        fam = Fam(alg, {elem(g, 0): F(1, 2), elem(g, 1, 2, 3): F(1, 2)})
        with pytest.raises(BlockedCellError):
            approx_uniform(fam, Partition.of_atoms(alg), F(1, 4), avoid=elem(g, 0))

    def test_degenerate_and_bad_epsilon(self):
        g = GroundSet.of_size(3)
        zero = Fam(Algebra.trivial(g), [0])
        with pytest.raises(DegenerateFamError):
            approx_uniform(zero, Partition.coarsest(zero.algebra), F(1, 2))
        fam = Fam(Algebra.trivial(g), [1])
        with pytest.raises(InputError):
            approx_uniform(fam, Partition.coarsest(fam.algebra), F(0))

    def test_postconditions_random(self):
        rng = Random(7)
        for _ in range(60):
            g = GroundSet.of_size(rng.randint(2, 9))
            fam = random_fam(rng, g, max_atoms=8, max_denominator=5)
            partition = random_partition(rng, fam.algebra)
            eps = F(1, rng.choice([2, 4, 8, 16]))
            delta = fam.total
            out = approx_uniform(fam, partition, eps)
            c = math.ceil(delta / eps)
            assert out.u.size <= c
            assert sum(out.mu.values()) == 1
            for cell in partition.cells:
                assert abs(delta * out.mass(cell) - fam(cell)) < eps
                if fam(cell) == 0:
                    assert (out.u & cell).is_empty


class TestApproxUniformSmall:
    def test_size_bounded_by_partition(self):
        g = GroundSet.of_size(6)
        fam = uniform_fam(g, SetElem.full(g))
        cells = [elem(g, 0, 1, 2), elem(g, 3, 4, 5)]
        out = approx_uniform_small(fam, Partition(fam.algebra, cells), F(1, 100))
        assert out.u.size <= 2
        for cell in cells:
            assert out.mass(cell) == F(1, 2)

    def test_whole_space_singleton(self):
        g = GroundSet.of_size(5)
        fam = uniform_fam(g, SetElem.full(g))
        out = approx_uniform_small(fam, Partition(fam.algebra, [SetElem.full(g)]), F(1, 100))
        assert out.u.size == 1

    def test_zero_cell_no_point(self):
        g = GroundSet.of_size(4)
        alg = generate_algebra(g, [elem(g, 0, 1)])
        fam = Fam(alg, {elem(g, 0, 1): 1})
        out = approx_uniform_small(fam, Partition.of_atoms(alg), F(1, 100))
        assert out.u <= elem(g, 0, 1)

    def test_delegates_when_partition_large(self):
        g = GroundSet.of_size(6)
        fam = uniform_fam(g, SetElem.full(g))
        out = approx_uniform_small(fam, Partition.of_atoms(fam.algebra), F(1, 2))
        assert out.u.size <= 2


class TestUapWitness:
    def test_uniformly_supported_exact(self):
        g = GroundSet.of_size(6)
        u0 = elem(g, 1, 3, 5)
        fam = uniform_fam(g, u0)
        partition = Partition(fam.algebra, [u0, ~u0])
        w = uap_witness(fam, partition, F(1, 8))
        assert w == u0  # support-based witness reproduces the support here
        for cell in partition.cells:
            assert fam(cell) == F(w.size and (w & cell).size, w.size)

    def test_counterexample_absent(self):
        g = GroundSet.of_size(4)
        fam = Fam(Algebra.power_set(g), [F(1, 3), F(2, 3), 0, 0])
        partition = Partition(fam.algebra, [elem(g, 0), elem(g, 1), elem(g, 2, 3)])
        assert uap_witness(fam, partition, F(1, 8)) is None

    def test_search_finds_loose_witness(self):
        # not uniformly supported, but a coarse epsilon still admits a witness
        g = GroundSet.of_size(4)
        fam = Fam(Algebra.power_set(g), [F(1, 3), F(2, 3), 0, 0])
        partition = Partition(fam.algebra, [SetElem.full(g)])
        w = uap_witness(fam, partition, F(1, 2))
        assert w is not None

    def test_point_mass(self):
        g = GroundSet.of_size(5)
        fam = point_mass(g, 3)
        partition = Partition(fam.algebra, [elem(g, 3), ~elem(g, 3)])
        w = uap_witness(fam, partition, F(1, 4))
        assert w == elem(g, 3)


class TestPreconditions:
    @pytest.mark.parametrize("approx, what", [
        (approx_uniform, "approximation"),
        (approx_uniform_small, "approximation"),
        (uap_witness, "uap witness"),
    ])
    def test_total_then_epsilon(self, approx, what):
        g = GroundSet.of_size(3)
        empty = Fam(Algebra.trivial(g), [0])
        # the total is checked first, even when epsilon is bad as well
        with pytest.raises(DegenerateFamError, match=f"^{what} needs positive total measure$"):
            approx(empty, Partition.of_atoms(empty.algebra), 0)
        fam = Fam(Algebra.trivial(g), [1])
        with pytest.raises(InputError, match="^epsilon must be positive$"):
            approx(fam, Partition.of_atoms(fam.algebra), "-1/2")


class TestApproxWithIntegrals:
    def test_empty_fns_matches_small_contract(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        partition = Partition(fam.algebra, [elem(g, 0, 1), elem(g, 2, 3)])
        out = approx_with_integrals(fam, partition, F(1, 4), [])
        for cell in partition.cells:
            assert abs(out.mass(cell) - F(1, 2)) < F(1, 4)

    def test_identity_function_sandwich(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        partition = Partition(fam.algebra, [SetElem.full(g)])
        f = [0, 1, 2, 3]
        out = approx_with_integrals(fam, partition, F(1, 2), [f])
        weighted = sum((F(x) * out.mu.get(i, F(0)) for i, x in enumerate(f)), F(0))
        assert abs(weighted - F(3, 2)) < F(1, 2)

    def test_constant_exact(self):
        g = GroundSet.of_size(4)
        fam = uniform_fam(g, SetElem.full(g))
        partition = Partition(fam.algebra, [SetElem.full(g)])
        out = approx_with_integrals(fam, partition, F(1, 3), [[5, 5, 5, 5]])
        weighted = sum((F(5) * m for m in out.mu.values()), F(0))
        assert weighted == 5

    def test_cell_masses_still_close(self):
        g = GroundSet.of_size(6)
        fam = uniform_fam(g, SetElem.full(g))
        cells = [elem(g, 0, 1, 2), elem(g, 3, 4), elem(g, 5)]
        partition = Partition(fam.algebra, cells)
        out = approx_with_integrals(fam, partition, F(1, 6), [[1, 0, 2, 0, 1, 3]])
        for cell in cells:
            assert abs(out.mass(cell) - fam(cell)) < F(1, 6)
