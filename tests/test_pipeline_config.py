"""Tests for experiment configuration (repro.pipeline.config)."""

from __future__ import annotations

import pytest

from repro.core.kast import KastSpectrumKernel
from repro.kernels.bag import BagOfCharactersKernel, BagOfWordsKernel
from repro.kernels.blended import BlendedSpectrumKernel
from repro.kernels.spectrum import SpectrumKernel
from repro.api.spec import kernel_from_spec, make_spec
from repro.pipeline.config import KERNEL_CHOICES, ExperimentConfig


class TestMakeKernel:
    """Kernel construction from a kind name: ``make_spec`` + ``kernel_from_spec``."""

    def test_all_kernel_choices_constructible(self):
        for kind in KERNEL_CHOICES:
            kernel = kernel_from_spec(make_spec(kind))
            assert hasattr(kernel, "value")

    def test_kast_gets_cut_weight(self):
        kernel = kernel_from_spec(make_spec("kast", cut_weight=8))
        assert isinstance(kernel, KastSpectrumKernel)
        assert kernel.cut_weight == 8

    def test_blended_gets_min_weight_and_k(self):
        kernel = kernel_from_spec(make_spec("blended", min_weight=4, max_length=5))
        assert isinstance(kernel, BlendedSpectrumKernel)
        assert kernel.min_weight == 4
        assert kernel.max_length == 5

    def test_spectrum_and_bags(self):
        assert isinstance(kernel_from_spec(make_spec("spectrum")), SpectrumKernel)
        assert isinstance(kernel_from_spec(make_spec("bag-of-characters")), BagOfCharactersKernel)
        assert isinstance(kernel_from_spec(make_spec("bag-of-words")), BagOfWordsKernel)

    def test_case_insensitive(self):
        assert isinstance(kernel_from_spec(make_spec("KAST")), KastSpectrumKernel)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            make_spec("transformer")


class TestExperimentConfig:
    def test_defaults_match_paper_main_setting(self):
        config = ExperimentConfig()
        assert config.kernel == "kast"
        assert config.cut_weight == 2
        assert config.use_byte_information
        assert config.linkage == "single"
        assert config.n_clusters == 3

    def test_build_kernel(self):
        assert isinstance(ExperimentConfig().build_kernel(), KastSpectrumKernel)
        assert isinstance(ExperimentConfig(kernel="blended").build_kernel(), BlendedSpectrumKernel)

    def test_with_cut_weight_returns_new_config(self):
        base = ExperimentConfig()
        changed = base.with_cut_weight(64)
        assert changed.cut_weight == 64
        assert base.cut_weight == 2
        assert changed.kernel == base.kernel

    def test_with_kernel_and_without_bytes(self):
        config = ExperimentConfig().with_kernel("blended").without_byte_information()
        assert config.kernel == "blended"
        assert not config.use_byte_information

    def test_describe_mentions_key_settings(self):
        text = ExperimentConfig(kernel="blended", cut_weight=16).describe()
        assert "blended" in text
        assert "16" in text
        assert "bytes" in text


class TestConfigFromSpec:
    def test_round_trips_expressible_specs(self):
        from repro.api import make_spec
        from repro.pipeline.config import config_from_spec

        spec = make_spec("kast", cut_weight=16, backend="python")
        config = config_from_spec(spec)
        assert config.kernel == "kast"
        assert config.cut_weight == 16
        assert config.backend == "python"
        assert config.kernel_spec() == spec

        blended = make_spec("blended", min_weight=8, max_length=4, weighted=True)
        config = config_from_spec(blended)
        assert (config.kernel, config.cut_weight, config.spectrum_k, config.blended_weighted) == (
            "blended", 8, 4, True,
        )

    def test_rejects_inexpressible_parameters(self):
        from repro.api import make_spec
        from repro.pipeline.config import config_from_spec

        with pytest.raises(ValueError):
            config_from_spec(make_spec("kast", filter_tokens_below_cut=True))
        with pytest.raises(ValueError):
            config_from_spec(make_spec("blended", decay=0.5))
        with pytest.raises(ValueError):
            config_from_spec(make_spec("bag-of-words", weighted=False))

    def test_rejects_composites(self):
        from repro.api import make_spec
        from repro.pipeline.config import config_from_spec

        with pytest.raises(ValueError):
            config_from_spec(make_spec("sum", children=[make_spec("kast")]))
