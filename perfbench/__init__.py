"""Host-time benchmark of the Poseidon reproduction (see README.md)."""
