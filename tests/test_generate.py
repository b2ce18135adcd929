import pytest

from mintest import (
    GenerationError,
    GeneratorConfig,
    SplitMix64,
    derive_seeds,
    find_mandatory,
    generate_matrix,
    parse_matrix,
)


class TestSplitMix64:
    def test_reference_vector(self):
        # published outputs for seed 0
        g = SplitMix64(0)
        assert g.next_uint64() == 0xE220A8397B1DCDAF
        assert g.next_uint64() == 0x6E789E6AA1B965F4
        assert g.next_uint64() == 0x06C45D188009454F

    def test_floats_in_unit_interval(self):
        g = SplitMix64(42)
        for _ in range(1000):
            assert 0.0 <= g.next_float() < 1.0

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 70).next_uint64() == SplitMix64(0).next_uint64()


class TestGenerateMatrix:
    def test_deterministic(self):
        cfg = GeneratorConfig(rows=12, cols=9, ones_density=0.4, seed=77)
        assert generate_matrix(cfg) == generate_matrix(cfg)

    def test_different_seeds_differ(self):
        a = generate_matrix(GeneratorConfig(rows=10, cols=8, seed=1))
        b = generate_matrix(GeneratorConfig(rows=10, cols=8, seed=2))
        assert a != b

    def test_pigeonhole_error(self):
        with pytest.raises(GenerationError):
            generate_matrix(GeneratorConfig(rows=3, cols=1, seed=0))

    def test_redraws_run_out(self):
        # 4 distinct rows of 2 bits need the row 11, which density 0.01
        # draws once in 10,000 tries; seed 1 does not within the budget.
        config = GeneratorConfig(rows=4, cols=2, ones_density=0.01, seed=1)
        with pytest.raises(GenerationError, match="^could not draw 4 distinct rows "):
            generate_matrix(config)

    def test_output_passes_load_invariants(self):
        m = generate_matrix(GeneratorConfig(rows=25, cols=10, ones_density=0.5, seed=9))
        text = "\n".join(m.row_string(lab) for lab in m.row_labels)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reloaded = parse_matrix(text)
        assert reloaded.rows == m.rows
        find_mandatory(reloaded)  # no exception

    def test_density_skews_popcount(self):
        dense = generate_matrix(GeneratorConfig(rows=20, cols=10, ones_density=0.8, seed=5))
        sparse = generate_matrix(GeneratorConfig(rows=20, cols=10, ones_density=0.2, seed=5))
        ones = lambda m: sum(r.bit_count() for r in m.rows)
        assert ones(dense) > ones(sparse)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(rows=1, cols=3)
        with pytest.raises(ValueError):
            GeneratorConfig(rows=3, cols=0)
        with pytest.raises(ValueError):
            GeneratorConfig(rows=3, cols=3, ones_density=1.0)

    def test_exhaustive_tiny_space_still_works(self):
        # m == 2^n exactly: every possible row must appear
        m = generate_matrix(GeneratorConfig(rows=4, cols=2, seed=11))
        assert sorted(m.rows) == [0, 1, 2, 3]


class TestDeriveSeeds:
    def test_reproducible_and_distinct(self):
        a = derive_seeds(123, 50)
        b = derive_seeds(123, 50)
        assert a == b
        assert len(set(a)) == 50

    def test_prefix_stability(self):
        assert derive_seeds(9, 10)[:5] == derive_seeds(9, 5)
