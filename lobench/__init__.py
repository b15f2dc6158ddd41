"""lobench: the cold, layer-attributed end-to-end benchmark (see README.md)."""
