"""Unit tests for repro.common.units."""

import pytest

from repro.common.units import (
    GIB,
    K_TOKENS,
    M_TOKENS,
    format_bytes,
    format_tokens,
    parse_tokens,
)


class TestParseTokens:
    def test_plain_integer_string(self):
        assert parse_tokens("4096") == 4096

    def test_k_suffix_is_binary(self):
        assert parse_tokens("256K") == 256 * 1024

    def test_m_suffix_is_binary(self):
        assert parse_tokens("2M") == 2 * 1024 * 1024

    def test_lowercase_suffixes(self):
        assert parse_tokens("64k") == 64 * K_TOKENS
        assert parse_tokens("1m") == M_TOKENS

    def test_int_passthrough(self):
        assert parse_tokens(12345) == 12345

    def test_fractional_resolving_to_integer(self):
        assert parse_tokens("0.5M") == 512 * 1024

    def test_fractional_not_integer_raises(self):
        with pytest.raises(ValueError):
            parse_tokens("0.3K")

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_tokens("12G")

    def test_roundtrip_with_format(self):
        for text in ["128K", "256K", "512K", "1M", "2M", "4M", "8M"]:
            assert format_tokens(parse_tokens(text)) == text


class TestFormatters:
    def test_format_tokens_non_multiple(self):
        assert format_tokens(1000) == "1000"

    def test_format_bytes_gib(self):
        assert format_bytes(68 * GIB) == "68.0G"

    def test_format_bytes_small(self):
        assert format_bytes(512) == "512B"

    def test_format_bytes_decimal(self):
        assert format_bytes(32e9, binary=False) == "32.0GB"
