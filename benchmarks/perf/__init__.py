"""The repo's performance benchmark (see README.md in this directory)."""
