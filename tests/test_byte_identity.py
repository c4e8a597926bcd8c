"""Byte-identity fence: the digests of ``byte_digests``, one test each."""

import pytest

from byte_digests import (
    CATALOG_DIGESTS,
    COMMAND_DIGESTS,
    ENUMERATE_DIGESTS,
    TOTAL_10_DIGESTS,
    catalog_digest,
    command_digest,
    enumerate_digest,
    total_10_digest,
)


@pytest.mark.parametrize("max_vertices", list(ENUMERATE_DIGESTS))
def test_enumeration_bytes_unchanged(max_vertices):
    assert enumerate_digest(max_vertices) == ENUMERATE_DIGESTS[max_vertices]


@pytest.mark.parametrize("max_vertices", list(TOTAL_10_DIGESTS))
def test_total_10_bytes_unchanged(max_vertices):
    assert total_10_digest(max_vertices) == TOTAL_10_DIGESTS[max_vertices]


@pytest.mark.parametrize("kind", list(CATALOG_DIGESTS))
def test_catalog_bytes_unchanged(kind):
    assert catalog_digest(kind) == CATALOG_DIGESTS[kind]


@pytest.mark.parametrize("command", list(COMMAND_DIGESTS))
def test_command_bytes_unchanged(command):
    assert command_digest(command) == COMMAND_DIGESTS[command]
